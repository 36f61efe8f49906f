//! The library coordinator ([`esse::mtc::coordinator`]) over the
//! library's in-memory port set ([`esse::mtc::mem::MemPool`]), driven by
//! simulated workers on a virtual clock, and by the thread crew of
//! `MtcEsse`.
//!
//! * `library_coordinator_writes_the_posterior_of_esse_master` runs the
//!   `monterey:10,10,3` scenario through the library, with forecasts
//!   from the same library calls `pert` and `pemodel` make, and asserts
//!   the posterior bytes equal an `esse_master --workers 2` run's.
//! * `in_process_run_writes_the_posterior_of_esse_master` runs the same
//!   scenario through `MtcEsse` with `esse_master`'s settings — crews of
//!   1, 2 and 4 threads, transient task failures drawn from `FAULT_SEED`
//!   — and asserts the same bytes.
//! * `in_process_posterior_is_a_pure_function_of_seed_and_config`: one
//!   posterior for 1, 2 and 4 threads, with and without a seeded plan of
//!   crashes, corrupt payloads and a dying thread.
//! * `seeded_fault_schedules_keep_the_coordinator_invariants` is a seeded
//!   fault explorer over cheap synthetic forecasts (a pure function of
//!   member and seed). A schedule reorders, duplicates and delays
//!   results — past the lease, so a zombie publishes at a stale epoch —,
//!   drops claims so leases expire, corrupts payloads, races stragglers
//!   with speculative twins, may stop at a Tmax deadline, and at journal
//!   append boundaries either fails the append (park) or stops right
//!   after it is durable (crash); each is followed by a rebuild through
//!   `Coordinator::resume` from the journal and the surviving pool and
//!   store. A failing schedule prints its seed and event log.
//!
//! The `FAULT_SEED` environment variable shifts every seed, as in
//! `tests/fault_tolerance.rs`.

use esse::core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse::core::format::subspace_to_bytes;
use esse::core::model::{LinearGaussianModel, PeForecastModel};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::ErrorSubspace;
use esse::core::validate::{ForecastValidator, Reason, ValidatorConfig, VarBounds};
use esse::mtc::coordinator::{
    begin_incarnation, quiet, CoordError, Coordinator, JournalPort, PoolPort, Setup, StorePort,
};
use esse::mtc::journal::{Checkpoint, JournalRecord, JournalState};
use esse::mtc::mem::MemPool;
use esse::mtc::pool::{Heartbeat, ResultRecord, TaskSpec, CODE_REJECTED};
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse::mtc::{FaultPlan, RetryPolicy};
use esse_obs::recorder::NULL;
use esse_obs::registry::MetricsRegistry;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// One coordinator loop turn on the virtual clock.
const TICK_MS: u64 = 15;
/// The lease, in ticks.
const LEASE_TICKS: u64 = 8;
const RUN_HASH: u64 = 0x51_u64;

/// Base seed for every seeded draw; CI shifts it per matrix job.
fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// SplitMix64: one stream per schedule, stable across platforms.
#[derive(Default)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Per-event fault probabilities of a schedule.
#[derive(Clone, Copy, Default)]
struct Faults {
    /// An attempt's worker dies right after claiming: its lease expires.
    die: f64,
    /// An attempt stalls past its lease, then publishes at its epoch.
    zombie: f64,
    /// An attempt publishes a corrupt payload (CRC mismatch or NaN).
    corrupt: f64,
    /// An attempt exits nonzero, or its worker self-check rejects it.
    fail: f64,
    /// A published result record is delivered a second time later.
    duplicate: f64,
    /// A journal append fails (park) or is the last one before a crash.
    append: f64,
    /// Appends that may fail or crash per schedule.
    append_budget: usize,
    /// Race stragglers with twins at this multiple of the mean runtime.
    speculate: Option<f64>,
    /// Tmax, in ticks of each incarnation's clock.
    deadline: Option<u64>,
}

/// What a simulated attempt does.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Act {
    Clean,
    Die,
    Zombie,
    Flip,
    Nan,
    Fail,
    Reject,
}

/// The library's pool, as the simulation owns it.
struct Pool(MemPool<'static>);

impl Default for Pool {
    fn default() -> Self {
        Pool(MemPool::new(1, &NULL, None))
    }
}

impl std::ops::Deref for Pool {
    type Target = MemPool<'static>;

    fn deref(&self) -> &MemPool<'static> {
        &self.0
    }
}

/// The library's in-memory pool and store behind the invariant checks
/// every port call makes against the durable journal, with append
/// failures (park) and crashes injected at journal appends. The store is
/// durable across crashes, like `esse_master`'s workdir: it keeps every
/// committed forecast.
#[derive(Default)]
struct Sim {
    pool: Pool,
    journal: RefCell<Vec<JournalRecord>>,
    cancelled: Cell<bool>,

    /// Append faults still to inject, and the stream that places them.
    append_faults: RefCell<(Rng, f64, usize)>,
    /// This incarnation's append failed: nothing may touch a port again.
    parked: Cell<bool>,
    /// This incarnation crashed after a durable append: later calls are
    /// a dead process's and have no effect.
    dead: Cell<bool>,
    log: RefCell<Vec<String>>,
    violations: RefCell<Vec<String>>,

    /// Journal-derived: highest `EpochAdvanced` per member, every
    /// advanced epoch, the epochs whose payload was quarantined,
    /// completed and failed members.
    high_water: RefCell<BTreeMap<u64, u32>>,
    advanced: RefCell<BTreeSet<(u64, u32)>>,
    quarantined: RefCell<BTreeSet<(u64, u32)>>,
    completed: RefCell<BTreeSet<u64>>,
    failed: RefCell<BTreeSet<u64>>,
    /// Pool-derived: highest epoch ever seeded per member, every task
    /// incarnation a worker published a result for, and the claims still
    /// live when their member's next epoch was seeded — the original side
    /// of a speculation race, unless the coordinator dropped the claim.
    seeded: RefCell<BTreeMap<u64, u32>>,
    published: RefCell<BTreeSet<(u64, u32)>>,
    raced: RefCell<BTreeSet<(u64, u32)>>,
    /// Results consumed under the speculation exception.
    twin_wins: Cell<usize>,
}

impl Sim {
    fn violation(&self, what: String) {
        self.violations.borrow_mut().push(what);
    }

    /// Every pool and store call passes here first. `false`: a crashed
    /// incarnation's call, which must change nothing.
    fn live(&self, call: &str) -> bool {
        if self.parked.get() {
            self.violation(format!("{call} after a failed journal append"));
        }
        !self.dead.get()
    }

    fn decided(&self, m: u64) -> bool {
        self.completed.borrow().contains(&m) || self.failed.borrow().contains(&m)
    }

    fn high_water(&self, m: u64) -> u32 {
        self.high_water.borrow().get(&m).copied().unwrap_or(0)
    }

    fn claimed(&self, key: (u64, u32)) -> bool {
        self.pool.snapshot().0.claims.iter().any(|c| (c.spec.member, c.spec.epoch) == key)
    }

    /// A coordinator (re)start: the tombstones are cleared, as
    /// `esse_master` does, and the new process is alive.
    fn restart(&self) {
        self.parked.set(false);
        self.dead.set(false);
        self.cancelled.set(false);
    }
}

impl JournalPort for Sim {
    fn append(&self, rec: &JournalRecord) -> io::Result<()> {
        if self.dead.get() {
            return Ok(());
        }
        if self.parked.get() {
            self.violation(format!("append {rec:?} after a failed journal append"));
        }
        let n = self.journal.borrow().len();
        let (crash, park) = {
            let (rng, p, budget) = &mut *self.append_faults.borrow_mut();
            if *budget > 0 && rng.chance(*p) {
                *budget -= 1;
                let crash = rng.chance(0.5);
                (crash, !crash)
            } else {
                (false, false)
            }
        };
        if park {
            self.log.borrow_mut().push(format!("append #{n} {rec:?} fails: park"));
            self.parked.set(true);
            return Err(io::Error::other("injected append failure"));
        }
        match *rec {
            JournalRecord::EpochAdvanced { member, epoch } => {
                if epoch <= self.high_water(member) {
                    self.violation(format!("epoch of member {member} rewound to {epoch}"));
                }
                self.high_water.borrow_mut().insert(member, epoch);
                self.advanced.borrow_mut().insert((member, epoch));
            }
            JournalRecord::MemberCompleted { member, .. } => {
                if !self.completed.borrow_mut().insert(member) {
                    self.violation(format!("member {member} ingested twice"));
                }
                self.failed.borrow_mut().remove(&member);
            }
            JournalRecord::MemberQuarantined { member, .. } => {
                self.quarantined.borrow_mut().insert((member, self.high_water(member)));
                self.completed.borrow_mut().remove(&member);
            }
            JournalRecord::MemberFailed { member, .. } => {
                self.failed.borrow_mut().insert(member);
            }
            _ => {}
        }
        self.journal.borrow_mut().push(*rec);
        if crash {
            self.log.borrow_mut().push(format!("append #{n} {rec:?} durable, then crash"));
            self.dead.set(true);
        }
        Ok(())
    }
}

impl PoolPort for Sim {
    /// The highest epoch of each member anywhere in the pool.
    fn epochs(&self) -> io::Result<HashMap<u64, u32>> {
        let (scan, ..) = self.pool.snapshot();
        let mut epochs = HashMap::new();
        let claims = scan.claims.iter().map(|c| c.spec);
        let keys = scan.pending.into_iter().chain(claims).map(|t| (t.member, t.epoch));
        for (m, e) in keys.chain(scan.results.iter().map(|r| (r.member, r.epoch))) {
            let hw = epochs.entry(m).or_insert(0);
            *hw = e.max(*hw);
        }
        Ok(epochs)
    }

    fn seed(&self, spec: &TaskSpec) -> io::Result<()> {
        if !self.live("seed") {
            return Ok(());
        }
        let (m, e) = (spec.member, spec.epoch);
        if !self.advanced.borrow().contains(&(m, e)) {
            self.violation(format!("seeded member {m} epoch {e} before its EpochAdvanced"));
        }
        if self.seeded.borrow().get(&m).is_some_and(|&s| e <= s) {
            self.violation(format!("member {m} seeded again at epoch {e}"));
        }
        if self.claimed((m, e - 1)) {
            self.raced.borrow_mut().insert((m, e - 1));
        }
        self.seeded.borrow_mut().insert(m, e);
        self.pool.seed(spec)
    }

    fn fence_result(&self, rec: &ResultRecord) -> io::Result<()> {
        if self.live("fence_result") {
            self.pool.fence_result(rec)?;
        }
        Ok(())
    }

    fn consume_result(&self, rec: &ResultRecord) -> io::Result<()> {
        if !self.live("consume_result") {
            return Ok(());
        }
        // Fencing: only the current epoch's result is consumed, but for
        // a quarantined one (its replacement may already be out) and the
        // original side of a speculation race.
        let (current, key) = (self.high_water(rec.member), (rec.member, rec.epoch));
        let twin = rec.epoch != current && self.raced.borrow().contains(&key);
        self.twin_wins.set(self.twin_wins.get() + twin as usize);
        if rec.epoch != current && !twin && !self.quarantined.borrow().contains(&key) {
            let (m, e) = key;
            self.violation(format!("consumed member {m}'s epoch-{e} result at epoch {current}"));
        }
        self.pool.consume_result(rec)
    }

    fn remove_claim(&self, spec: &TaskSpec) -> io::Result<()> {
        if !self.live("remove_claim") {
            return Ok(());
        }
        let key = (spec.member, spec.epoch);
        let (live, published) = (self.claimed(key), self.published.borrow().contains(&key));
        // "Seed the successor first": an undecided member's newest claim
        // goes only once its result is in, or a later epoch exists.
        let newest = spec.epoch == self.high_water(spec.member);
        if live && newest && !self.decided(spec.member) && !published {
            self.violation(format!(
                "member {} left with no incarnation: claim of epoch {} dropped",
                spec.member, spec.epoch
            ));
        }
        if live && !published {
            self.raced.borrow_mut().remove(&key);
        }
        self.pool.remove_claim(spec)
    }

    fn cancel_pending(&self) -> io::Result<usize> {
        if !self.live("cancel_pending") {
            return Ok(0);
        }
        self.pool.cancel_pending()
    }

    fn write_cancel(&self) -> io::Result<()> {
        if self.live("write_cancel") {
            self.cancelled.set(true);
        }
        Ok(())
    }

    fn trace_sidecar(&self, _member: u64, _epoch: u32) -> Option<Vec<u8>> {
        None
    }
}

impl StorePort for Sim {
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)> {
        self.live("read_forecast");
        self.pool.read_forecast(member)
    }

    fn read_result(&self, rec: &ResultRecord) -> io::Result<(Vec<f64>, u32)> {
        self.live("read_result");
        self.pool.read_result(rec)
    }

    fn commit(&self, rec: &ResultRecord) -> io::Result<()> {
        if self.live("commit") {
            self.pool.commit(rec)?;
        }
        Ok(())
    }

    fn quarantine_forecast(&self, member: u64) -> io::Result<()> {
        if self.live("quarantine_forecast") {
            self.pool.quarantine_forecast(member)?;
        }
        Ok(())
    }

    fn publish_covariance(&self, _estimate: &ErrorSubspace, _version: u64) -> io::Result<()> {
        self.live("publish_covariance");
        Ok(())
    }
}

/// A run's fixed inputs: the member seed stream, the central forecast,
/// the ingestion gate, the forecast model and the schedule.
struct Scenario<'a> {
    gen: PerturbationGenerator<'a>,
    central: Vec<f64>,
    validator: ForecastValidator,
    forecast: Box<dyn Fn(u64, u64) -> Vec<f64> + 'a>,
    initial: usize,
    max: usize,
    tolerance: f64,
    lease_ms: u64,
}

/// One claimed task incarnation, as its worker will play it out.
struct Attempt {
    spec: TaskSpec,
    act: Act,
    /// Tick at which the worker publishes.
    due: u64,
    heartbeat: u64,
    duplicate: bool,
}

/// The workers and the clock around one [`Sim`].
struct World<'s, 'a> {
    sc: &'s Scenario<'a>,
    sim: &'s Sim,
    faults: Faults,
    rng: Rng,
    tick: u64,
    workers: Vec<Option<Attempt>>,
    /// Results delivered again at a later tick.
    replays: Vec<(u64, ResultRecord, Option<Vec<f64>>)>,
}

impl World<'_, '_> {
    fn log(&self, line: String) {
        self.sim.log.borrow_mut().push(format!("t{} {line}", self.tick));
    }

    /// One tick: workers heartbeat, publish and claim.
    fn advance(&mut self) {
        self.tick += 1;
        let pool = &self.sim.pool;
        for slot in 0..self.workers.len() {
            let Some(a) = self.workers[slot].as_mut() else { continue };
            if self.sim.cancelled.get() && a.act != Act::Zombie {
                // A live worker observes CANCEL mid-run and abandons.
                let _ = pool.remove_claim(&a.spec);
                self.workers[slot] = None;
                continue;
            }
            if a.act != Act::Zombie {
                a.heartbeat += 1;
                pool.heartbeat(&a.spec, Heartbeat { pid: slot as u32, counter: a.heartbeat });
            }
            if self.tick >= a.due {
                let a = self.workers[slot].take().expect("busy slot");
                self.publish(&a);
            }
        }
        let due: Vec<_> = self.replays.iter().filter(|r| r.0 <= self.tick).cloned().collect();
        self.replays.retain(|r| r.0 > self.tick);
        for (_, r, xf) in due {
            self.log(format!("m{}.e{} result delivered again", r.member, r.epoch));
            pool.publish(r, xf);
        }
        for slot in 0..self.workers.len() {
            if self.workers[slot].is_none() && !self.sim.cancelled.get() {
                self.claim(slot);
            }
        }
    }

    fn claim(&mut self, slot: usize) {
        let Some((spec, _)) = self.sim.pool.claim(false) else { return };
        let (f, rng) = (self.faults, &mut self.rng);
        let act = if rng.chance(f.die) {
            Act::Die
        } else if rng.chance(f.zombie) {
            Act::Zombie
        } else if rng.chance(f.corrupt) {
            [Act::Flip, Act::Nan][rng.below(2) as usize]
        } else if rng.chance(f.fail) {
            [Act::Fail, Act::Reject][rng.below(2) as usize]
        } else {
            Act::Clean
        };
        let delay = match act {
            Act::Zombie => LEASE_TICKS + 1 + rng.below(12),
            _ => 1 + rng.below(6),
        };
        let duplicate = rng.chance(f.duplicate);
        self.log(format!("m{}.e{} claimed: {act:?} in {delay}", spec.member, spec.epoch));
        if act != Act::Die {
            let due = self.tick + delay;
            self.workers[slot] = Some(Attempt { spec, act, due, heartbeat: 0, duplicate });
        }
    }

    fn publish(&mut self, a: &Attempt) {
        let (m, e) = (a.spec.member, a.spec.epoch);
        let mut x = (self.sc.forecast)(m, a.spec.seed);
        if a.act == Act::Nan {
            x[1] = f64::NAN;
        }
        let (code, reason, fc_crc) = match a.act {
            Act::Fail => (3, 0, 0),
            Act::Reject => (CODE_REJECTED, Reason::NonFinite.code(), 0),
            // The stored bytes no longer match the record's CRC.
            Act::Flip => (0, 0, 0x0BAD_F00D),
            _ => (0, 0, 0),
        };
        let rec = ResultRecord { member: m, epoch: e, code, pid: 0, fc_crc, reason };
        let payload = (code == 0).then_some(x);
        self.sim.pool.publish(rec, payload.clone());
        self.sim.published.borrow_mut().insert((m, e));
        self.log(format!("m{m}.e{e} published"));
        if a.duplicate {
            let at = self.tick + 1 + self.rng.below(3 * LEASE_TICKS);
            self.replays.push((at, rec, payload));
        }
    }
}

/// What one schedule produced.
struct Outcome {
    posterior: Vec<u8>,
    /// Members were lost for good, or the deadline cut the run short:
    /// the run says so, and its posterior may differ from the
    /// fault-free one.
    degraded: bool,
    converged: bool,
    /// Race originals consumed while their twin's epoch was current.
    twin_wins: usize,
    violations: Vec<String>,
    log: Vec<String>,
}

/// Run `sc` to a completed journal with `workers` simulated workers
/// under the fault schedule drawn from `seed`, restarting the
/// coordinator through `Coordinator::resume` after every park and crash.
fn simulate(sc: &Scenario, faults: Faults, workers: usize, seed: u64) -> Outcome {
    let sim = Sim::default();
    *sim.append_faults.borrow_mut() = (Rng(seed ^ 0xA99E), faults.append, faults.append_budget);
    let mut world = World {
        sc,
        sim: &sim,
        faults,
        rng: Rng(seed),
        tick: 0,
        workers: (0..workers).map(|_| None).collect(),
        replays: Vec::new(),
    };
    let mut posterior = Vec::new();
    let (mut degraded, mut converged) = (false, false);
    // A dead incarnation's calls have no effect, so what it does after
    // the crash, errors included, never happened.
    let unexpected = |e: CoordError| match e {
        CoordError::Parked(_) if sim.parked.get() => {}
        _ if sim.dead.get() => {}
        e => sim.violation(format!("coordinator failed: {e}")),
    };
    'incarnation: for restart in 0.. {
        if restart > faults.append_budget {
            sim.violation("more restarts than injected faults".into());
            break;
        }
        if restart > 0 {
            // An outage: the fleet runs on while the coordinator is down.
            for _ in 0..world.rng.below(4) {
                world.advance();
            }
            world.log("coordinator restarts".into());
        }
        sim.restart();
        let state = JournalState::replay(&sim.journal.borrow());
        let limits = (sc.max, sc.tolerance);
        let incarnation = match begin_incarnation(&sim, &state, RUN_HASH, limits, &quiet) {
            Ok(None) => break,
            Ok(_) if sim.dead.get() => continue,
            Ok(Some(incarnation)) => incarnation,
            Err(e) => {
                unexpected(e);
                continue;
            }
        };
        let metrics = MetricsRegistry::new();
        let mut retry = RetryPolicy::retries(3).with_backoff(Duration::from_millis(20), 2.0, 0.0);
        if let Some(factor) = faults.speculate {
            retry = retry.with_speculation(factor);
        }
        let cfg = MtcConfig {
            pool_factor: 1.0,
            schedule: EnsembleSchedule::new(sc.initial, sc.max),
            tolerance: sc.tolerance,
            max_rank: 64,
            svd_stride: (sc.initial / 2).max(4),
            completion: CompletionPolicy::CancelImmediately,
            deadline: faults.deadline.map(|t| Duration::from_millis(t * TICK_MS)),
            retry: retry.with_timeout(Duration::from_millis(sc.lease_ms)),
            requeue_budget: Some(16),
            ..MtcConfig::default()
        };
        let setup = Setup {
            cfg: &cfg,
            gen: &sc.gen,
            central: &sc.central,
            validator: Some(sc.validator.clone()),
            trace_run: 0,
            incarnation,
            rec: &NULL,
            metrics: &metrics,
            progress: &quiet,
        };
        let mut co = match Coordinator::resume(&state, (&sim, &sim, &sim), setup) {
            Ok(_) if sim.dead.get() => continue,
            Ok(co) => co,
            Err(e) => {
                unexpected(e);
                continue;
            }
        };
        let start = world.tick;
        loop {
            world.advance();
            let now = Duration::from_millis((world.tick - start) * TICK_MS);
            match co.step(&sim.pool.snapshot().0, now) {
                Ok(_) if sim.dead.get() => continue 'incarnation,
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    unexpected(e);
                    continue 'incarnation;
                }
            }
            if world.tick > 20_000 {
                sim.violation("no progress after 20000 ticks".into());
                break 'incarnation;
            }
        }
        if co.deadline_expired() {
            degraded = true;
            if co.posterior_ids().len() < 2 {
                break;
            }
        }
        let update = match co.posterior() {
            Ok(update) => update,
            Err(e) => {
                unexpected(e);
                continue;
            }
        };
        // Published before `RunComplete`, as `esse_master` writes it.
        posterior = subspace_to_bytes(&update.subspace);
        degraded |= !sim.failed.borrow().is_empty();
        converged = co.converged();
        match co.complete(&update) {
            Ok(()) if !sim.dead.get() => break,
            Ok(()) => {}
            Err(e) => unexpected(e),
        }
    }
    let violations = sim.violations.take();
    let twin_wins = sim.twin_wins.get();
    Outcome { posterior, degraded, converged, twin_wins, violations, log: sim.log.take() }
}

/// One `esse_master --workers 2` run of the `monterey:10,10,3` scenario:
/// its workdir, posterior bytes and inputs, shared by the tests below.
struct MasterRun {
    dir: PathBuf,
    posterior: Vec<u8>,
    mean: Vec<f64>,
    prior: ErrorSubspace,
    central: Vec<f64>,
}

const DOMAIN: &str = "monterey:10,10,3";
const HOURS: f64 = 1.0;
/// `esse_master`'s flags in the runs below, and the oracle's config.
const MASTER_FLAGS: [&str; 12] = [
    "--domain",
    DOMAIN,
    "--hours",
    "1",
    "--initial",
    "4",
    "--max",
    "8",
    "--tolerance",
    "0.15",
    "--workers",
    "2",
];

fn master_run() -> &'static MasterRun {
    static RUN: OnceLock<MasterRun> = OnceLock::new();
    RUN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("esse-coordsim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_esse_master"))
            .arg("--workdir")
            .arg(&dir)
            .args(MASTER_FLAGS)
            .output()
            .expect("esse_master runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let read = |name: &str| esse::fileio::read_vector(dir.join(name)).unwrap();
        MasterRun {
            posterior: std::fs::read(dir.join("posterior.sub")).unwrap(),
            mean: read("mean.vec"),
            prior: esse::fileio::read_subspace(dir.join("prior.sub")).unwrap(),
            central: read("fc_central.vec"),
            dir,
        }
    })
}

/// The gate `esse_master` rebuilds for the scenario.
fn master_validator(run: &MasterRun) -> ForecastValidator {
    let (model, _) = esse::cli::build_model(DOMAIN).unwrap();
    let baselines = [run.mean.as_slice(), run.central.as_slice()];
    ForecastValidator::for_scenario(&model.grid, &baselines, &run.prior, ValidatorConfig::default())
}

/// `esse_master`'s scenario, run by the binary with two workers and by
/// the library over the in-memory ports: the same posterior bytes.
#[test]
fn library_coordinator_writes_the_posterior_of_esse_master() {
    let run = master_run();
    let (model, _) = esse::cli::build_model(DOMAIN).unwrap();
    let gen = PerturbationGenerator::new(&run.prior, PerturbConfig::default());
    let sc = Scenario {
        validator: master_validator(run),
        // What `pert` and then `pemodel` compute for the task's member
        // and seed.
        forecast: Box::new(|m, seed| {
            let ic = gen.perturb(&run.mean, m as usize);
            model.forecast(&ic, 0.0, HOURS * 3600.0, Some(seed)).expect("member forecast")
        }),
        gen: PerturbationGenerator::new(&run.prior, PerturbConfig::default()),
        central: run.central.clone(),
        initial: 4,
        max: 8,
        tolerance: 0.15,
        lease_ms: 1200,
    };
    let out = simulate(&sc, Faults::default(), 2, fault_seed());
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.posterior, run.posterior, "library posterior differs from esse_master's");
}

/// `MtcEsse` with `esse_master`'s settings — the same schedule, SVD
/// stride, gate, retry budget and completion policy — on 1, 2 and 4
/// threads, with transient task failures that a retry always clears:
/// the bytes of `esse_master --workers 2`. The two-thread run keeps a
/// checkpoint, which lays out its directory as `esse_master`'s workdir:
/// `fc_N.vec` forecasts and the same `posterior.sub` file.
#[test]
fn in_process_run_writes_the_posterior_of_esse_master() {
    let run = master_run();
    let seed = fault_seed();
    let (pe, _) = esse::cli::build_model(DOMAIN).unwrap();
    let model = PeForecastModel::new(pe);
    let flags: Vec<String> = MASTER_FLAGS.iter().map(|f| f.to_string()).collect();
    let master = esse::cli::master_config(&esse::cli::parse_args(&flags)).expect("flags");
    let ck_dir = std::env::temp_dir().join(format!("esse-coordsim-ck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ck_dir);
    let ck = Checkpoint::create(&ck_dir, 1).expect("checkpoint");
    for workers in [1, 2, 4] {
        let faults = Some(FaultPlan::seeded(seed).with_transient_io(0.3));
        let cfg = MtcConfig { workers, faults, ..master.clone() };
        let mut engine = MtcEsse::new(&model, cfg).with_validator(master_validator(run));
        if workers == 2 {
            engine = engine.with_checkpoint(&ck);
        }
        let out = engine.run(RunInit::new(&run.mean, &run.prior)).expect("in-process run");
        assert_eq!(out.central, run.central, "central forecasts differ");
        let bytes = subspace_to_bytes(&out.subspace);
        assert_eq!(
            bytes, run.posterior,
            "{workers} thread(s): posterior differs from esse_master's"
        );
    }
    let posterior = std::fs::read(ck_dir.join(esse::cli::files::POSTERIOR)).expect("posterior.sub");
    assert_eq!(posterior, std::fs::read(run.dir.join(esse::cli::files::POSTERIOR)).unwrap());
    assert!(ck_dir.join("fc_0.vec").exists() && !ck_dir.join("member_0.ck").exists());
    let _ = std::fs::remove_dir_all(&ck_dir);
    let _ = std::fs::remove_dir_all(&run.dir);
}

/// The same posterior bytes on 1, 2 and 4 threads, with and without a
/// seeded plan of crashes, corrupt payloads and a thread that dies: the
/// in-process posterior is a function of the seed and the configuration,
/// not of who ran what when.
#[test]
fn in_process_posterior_is_a_pure_function_of_seed_and_config() {
    // Two 5-variable blocks far apart, so every corruption kind the plan
    // draws (NaN, blowup, block shift) leaves the gate's bounds.
    let dim = 10;
    let model = LinearGaussianModel::diagonal(&vec![1.0; dim], 0.5, 1.0);
    let mean: Vec<f64> = (0..dim).map(|i| if i < 5 { 100.0 } else { -100.0 }).collect();
    let prior = ErrorSubspace::isotropic(&mut rand::rngs::StdRng::seed_from_u64(5), dim, 4, 1.0);
    let bounds = vec![
        VarBounds { name: "a", range: 0..5, lo: 50.0, hi: 150.0 },
        VarBounds { name: "b", range: 5..10, lo: -150.0, hi: -50.0 },
    ];
    let validator = ForecastValidator::new(bounds, mean.clone(), ValidatorConfig::default());
    let seed = fault_seed();
    let run = |workers: usize, faults: Option<FaultPlan>| {
        let cfg = MtcConfig {
            workers,
            pool_factor: 1.25,
            schedule: EnsembleSchedule::new(8, 24),
            tolerance: 1e-9,
            duration: 4.0,
            max_rank: 8,
            svd_stride: 4,
            retry: RetryPolicy::retries(8),
            faults,
            ..MtcConfig::default()
        };
        let engine = MtcEsse::new(&model, cfg).with_validator(validator.clone());
        let out = engine.run(RunInit::new(&mean, &prior)).expect("in-process run");
        (subspace_to_bytes(&out.subspace), out.svd_rounds, out.faults)
    };
    let (reference, rounds, _) = run(1, None);
    let plan = FaultPlan::seeded(seed ^ 0xB0B)
        .with_crashes(0.15)
        .with_corruption(0.15)
        .with_stragglers(0.5, Duration::from_millis(1))
        .with_worker_death(1, 3);
    let mut faults_seen = 0;
    for workers in [1, 2, 4] {
        let (bytes, r, _) = run(workers, None);
        assert_eq!((bytes, r), (reference.clone(), rounds), "{workers} thread(s), no faults");
        let (bytes, r, report) = run(workers, Some(plan.clone()));
        assert_eq!((bytes, r), (reference.clone(), rounds), "{workers} thread(s), {report:?}");
        faults_seen += report.retries + report.quarantined;
    }
    assert!(faults_seen > 0, "the plan (FAULT_SEED={seed}) injected nothing");
}

/// Synthetic members: the central state plus a weighted ±1 pattern
/// drawn from the member's seed. Every member's spread has the same
/// norm, so the ensemble-outlier gate never fires on a clean payload.
fn synthetic(dim: usize, tolerance: f64, prior: &ErrorSubspace) -> Scenario<'_> {
    let central: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.7).sin()).collect();
    let baseline = central.clone();
    Scenario {
        gen: PerturbationGenerator::new(prior, PerturbConfig::default()),
        validator: ForecastValidator::new(Vec::new(), central.clone(), ValidatorConfig::default()),
        forecast: Box::new(move |_, seed| {
            let mut rng = Rng(seed);
            let sign = |r: &mut Rng| if r.next() & 1 == 0 { 1.0 } else { -1.0 };
            (0..dim).map(|i| baseline[i] + sign(&mut rng) / (1.0 + i as f64 / 4.0)).collect()
        }),
        central,
        initial: 4,
        max: 16,
        tolerance,
        lease_ms: LEASE_TICKS * TICK_MS,
    }
}

#[test]
fn seeded_fault_schedules_keep_the_coordinator_invariants() {
    let base = fault_seed();
    let schedules: u64 = if cfg!(debug_assertions) { 500 } else { 3000 };
    let dim = 24;
    let prior = ErrorSubspace::isotropic(&mut rand::rngs::StdRng::seed_from_u64(3), dim, 1, 1.0);
    // One schedule that converges and cancels, one that fills every stage.
    let scenarios = [synthetic(dim, 0.1, &prior), synthetic(dim, 1e-12, &prior)];
    let references: Vec<Outcome> =
        scenarios.iter().map(|sc| simulate(sc, Faults::default(), 1, 0)).collect();
    for (r, converges) in references.iter().zip([true, false]) {
        assert!(r.violations.is_empty() && !r.degraded, "{:?}", r.violations);
        assert_eq!(r.converged, converges, "the reference schedules cover both endings");
    }
    let faults = Faults {
        die: 0.06,
        zombie: 0.06,
        corrupt: 0.06,
        fail: 0.04,
        duplicate: 0.08,
        append: 0.04,
        append_budget: 6,
        ..Faults::default()
    };
    let started = Instant::now();
    let (mut degraded, mut cut, mut twin_wins) = (0, 0, 0);
    for case in 0..schedules {
        let seed = base.wrapping_mul(1_000_003).wrapping_add(case);
        let which = (case % 2) as usize;
        // Every third schedule races stragglers with twins; every fifth
        // has a Tmax that may cut it short.
        let faults = Faults {
            speculate: (case % 3 == 0).then_some(2.0),
            deadline: (case % 5 == 0).then_some(40 + case % 60),
            ..faults
        };
        let run = simulate(&scenarios[which], faults, 1 + (case % 4) as usize, seed);
        let mut broken = run.violations;
        if run.posterior != references[which].posterior && !run.degraded {
            broken.push("posterior differs from the fault-free one, health not degraded".into());
        }
        assert!(
            broken.is_empty(),
            "schedule {case} (FAULT_SEED={base}, seed {seed}) broke after {} seed(s): {broken:#?}\n\
             schedule:\n{}",
            case + 1,
            run.log.join("\n")
        );
        degraded += run.degraded as usize;
        cut += (run.degraded && faults.deadline.is_some()) as usize;
        twin_wins += run.twin_wins;
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "{schedules} schedules in {secs:.2} s ({:.0} schedules/s), {degraded} degraded \
         ({cut} cut by a deadline), {twin_wins} race(s) won by the original epoch",
        schedules as f64 / secs
    );
    assert!(cut > 0 && twin_wins > 0, "the schedules never reach a deadline or a twin race");
}
