//! The library coordinator ([`esse::mtc::coordinator`]) over an
//! in-memory port set: pool, journal and store live in `RefCell`s, and
//! simulated workers drive them on a virtual clock.
//!
//! * `library_coordinator_writes_the_posterior_of_esse_master` runs the
//!   `monterey:10,10,3` scenario through the library, with forecasts
//!   from the same library calls `pert` and `pemodel` make, and asserts
//!   the posterior bytes equal an `esse_master --workers 2` run's.
//! * `seeded_fault_schedules_keep_the_coordinator_invariants` is a seeded
//!   fault explorer over cheap synthetic forecasts (a pure function of
//!   member and seed). A schedule reorders, duplicates and delays
//!   results — past the lease, so a zombie publishes at a stale epoch —,
//!   drops claims so leases expire, corrupts payloads, and at journal
//!   append boundaries either fails the append (park) or stops right
//!   after it is durable (crash); each is followed by a rebuild through
//!   `Coordinator::resume` from the in-memory journal, pool and store. A
//!   failing schedule prints its seed and event log. The `FAULT_SEED`
//!   environment variable shifts the seed base, as in
//!   `tests/fault_tolerance.rs`.

use esse::core::format::{subspace_to_bytes, vector_from_bytes_with_crc, vector_to_bytes};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::subspace::{ErrorSubspace, SubspaceStrategy};
use esse::core::validate::{ForecastValidator, Reason, ValidatorConfig};
use esse::mtc::coordinator::{
    begin_incarnation, CoordError, Coordinator, JournalPort, PoolPort, Setup, StorePort,
};
use esse::mtc::journal::{JournalRecord, JournalState};
use esse::mtc::pool::{ClaimScan, Heartbeat, PoolScan, ResultRecord, TaskSpec, CODE_REJECTED};
use esse_obs::recorder::NULL;
use esse_obs::registry::MetricsRegistry;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::time::{Duration, Instant};

/// One coordinator loop turn on the virtual clock.
const TICK_MS: u64 = 15;
/// The lease, in ticks.
const LEASE_TICKS: u64 = 8;
const RUN_HASH: u64 = 0x51_u64;

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
    /// An attempt publishes a corrupt payload (flipped byte or NaN).
    corrupt: f64,
    /// An attempt exits nonzero, or its worker self-check rejects it.
    fail: f64,
    /// A published result record is delivered a second time later.
    duplicate: f64,
    /// A journal append fails (park) or is the last one before a crash.
    append: f64,
    /// Appends that may fail or crash per schedule.
    append_budget: usize,
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

/// The in-memory port set, plus the invariant checks every port call
/// makes against the durable journal.
#[derive(Default)]
struct Mem {
    journal: RefCell<Vec<JournalRecord>>,
    pending: RefCell<BTreeMap<(u64, u32), TaskSpec>>,
    claims: RefCell<BTreeMap<(u64, u32), ClaimScan>>,
    results: RefCell<BTreeMap<(u64, u32), ResultRecord>>,
    cancelled: Cell<bool>,
    forecasts: RefCell<BTreeMap<u64, Vec<u8>>>,
    covariance: RefCell<Option<(u64, Vec<u8>)>>,

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
    /// incarnation a worker published a result for.
    seeded: RefCell<BTreeMap<u64, u32>>,
    published: RefCell<BTreeSet<(u64, u32)>>,
}

impl Mem {
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

    /// A coordinator (re)start: the tombstones are cleared, as
    /// `esse_master` does, and the new process is alive.
    fn restart(&self) {
        self.parked.set(false);
        self.dead.set(false);
        self.cancelled.set(false);
    }

    fn scan(&self) -> PoolScan {
        PoolScan {
            pending: self.pending.borrow().values().copied().collect(),
            claims: self.claims.borrow().values().copied().collect(),
            results: self.results.borrow().values().copied().collect(),
        }
    }

    /// The highest epoch of each member anywhere in the pool.
    fn epochs(&self) -> HashMap<u64, u32> {
        let mut epochs = HashMap::new();
        let pending = self.pending.borrow();
        let claims = self.claims.borrow();
        let results = self.results.borrow();
        for &(m, e) in pending.keys().chain(claims.keys()).chain(results.keys()) {
            let hw = epochs.entry(m).or_insert(0);
            *hw = e.max(*hw);
        }
        epochs
    }
}

impl JournalPort for Mem {
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

impl PoolPort for Mem {
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
        self.seeded.borrow_mut().insert(m, e);
        self.pending.borrow_mut().insert((m, e), *spec);
        Ok(())
    }

    fn fence_result(&self, rec: &ResultRecord) -> io::Result<()> {
        if self.live("fence_result") {
            self.results.borrow_mut().remove(&(rec.member, rec.epoch));
        }
        Ok(())
    }

    fn consume_result(&self, rec: &ResultRecord) -> io::Result<()> {
        if self.live("consume_result") {
            // Fencing: only the current epoch's result is consumed (the
            // replacement of a quarantined one may already be out).
            let (current, key) = (self.high_water(rec.member), (rec.member, rec.epoch));
            if rec.epoch != current && !self.quarantined.borrow().contains(&key) {
                let (m, e) = (rec.member, rec.epoch);
                self.violation(format!(
                    "consumed member {m}'s epoch-{e} result at epoch {current}"
                ));
            }
            self.results.borrow_mut().remove(&(rec.member, rec.epoch));
        }
        Ok(())
    }

    fn remove_claim(&self, spec: &TaskSpec) -> io::Result<()> {
        if !self.live("remove_claim") {
            return Ok(());
        }
        let key = (spec.member, spec.epoch);
        let live = self.claims.borrow_mut().remove(&key).is_some();
        // "Seed the successor first": an undecided member's newest claim
        // goes only once its result is in, or a later epoch exists.
        let newest = spec.epoch == self.high_water(spec.member);
        if live && newest && !self.decided(spec.member) && !self.published.borrow().contains(&key) {
            self.violation(format!(
                "member {} left with no incarnation: claim of epoch {} dropped",
                spec.member, spec.epoch
            ));
        }
        Ok(())
    }

    fn cancel_pending(&self) -> io::Result<usize> {
        if !self.live("cancel_pending") {
            return Ok(0);
        }
        Ok(std::mem::take(&mut *self.pending.borrow_mut()).len())
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

impl StorePort for Mem {
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)> {
        self.live("read_forecast");
        let forecasts = self.forecasts.borrow();
        let bytes = forecasts.get(&member).ok_or(io::ErrorKind::NotFound)?;
        vector_from_bytes_with_crc(bytes)
    }

    fn quarantine_forecast(&self, member: u64) -> io::Result<()> {
        if self.live("quarantine_forecast") {
            self.forecasts.borrow_mut().remove(&member);
        }
        Ok(())
    }

    fn publish_covariance(&self, bytes: &[u8], version: u64) -> io::Result<()> {
        if self.live("publish_covariance") {
            *self.covariance.borrow_mut() = Some((version, bytes.to_vec()));
        }
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

/// The workers and the clock around one [`Mem`].
struct World<'s, 'a> {
    sc: &'s Scenario<'a>,
    mem: &'s Mem,
    faults: Faults,
    rng: Rng,
    tick: u64,
    workers: Vec<Option<Attempt>>,
    /// Result records delivered again at a later tick.
    replays: Vec<(u64, ResultRecord)>,
}

impl World<'_, '_> {
    fn log(&self, line: String) {
        self.mem.log.borrow_mut().push(format!("t{} {line}", self.tick));
    }

    /// One tick: workers heartbeat, publish and claim.
    fn advance(&mut self) {
        self.tick += 1;
        let mem = self.mem;
        for slot in 0..self.workers.len() {
            let Some(a) = self.workers[slot].as_mut() else { continue };
            let key = (a.spec.member, a.spec.epoch);
            if mem.cancelled.get() && a.act != Act::Zombie {
                // A live worker observes CANCEL mid-run and abandons.
                mem.claims.borrow_mut().remove(&key);
                self.workers[slot] = None;
                continue;
            }
            if a.act != Act::Zombie {
                a.heartbeat += 1;
                if let Some(c) = mem.claims.borrow_mut().get_mut(&key) {
                    c.heartbeat = Some(Heartbeat { pid: slot as u32, counter: a.heartbeat });
                }
            }
            if self.tick >= a.due {
                let a = self.workers[slot].take().expect("busy slot");
                self.publish(&a);
            }
        }
        let due: Vec<ResultRecord> =
            self.replays.iter().filter(|(t, _)| *t <= self.tick).map(|&(_, r)| r).collect();
        self.replays.retain(|(t, _)| *t > self.tick);
        for r in due {
            self.log(format!("m{}.e{} result delivered again", r.member, r.epoch));
            mem.results.borrow_mut().insert((r.member, r.epoch), r);
        }
        for slot in 0..self.workers.len() {
            if self.workers[slot].is_none() && !mem.cancelled.get() {
                self.claim(slot);
            }
        }
    }

    fn claim(&mut self, slot: usize) {
        let Some((&key, &spec)) = self.mem.pending.borrow().iter().next() else { return };
        self.mem.pending.borrow_mut().remove(&key);
        self.mem.claims.borrow_mut().insert(key, ClaimScan { spec, heartbeat: None });
        let f = self.faults;
        let rng = &mut self.rng;
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
        self.log(format!("m{}.e{} claimed: {act:?} in {delay}", key.0, key.1));
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
        let mut bytes = vector_to_bytes(&x);
        let (_, crc) = vector_from_bytes_with_crc(&bytes).expect("fresh encoding");
        if a.act == Act::Flip {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x40;
        }
        let (code, reason) = match a.act {
            Act::Fail => (3, 0),
            Act::Reject => (CODE_REJECTED, Reason::NonFinite.code()),
            _ => (0, 0),
        };
        if code == 0 {
            self.mem.forecasts.borrow_mut().insert(m, bytes);
        }
        let fc_crc = if code == 0 { crc } else { 0 };
        let rec = ResultRecord { member: m, epoch: e, code, pid: 0, fc_crc, reason };
        self.mem.results.borrow_mut().insert((m, e), rec);
        self.mem.published.borrow_mut().insert((m, e));
        self.mem.claims.borrow_mut().remove(&(m, e));
        self.log(format!("m{m}.e{e} published"));
        if a.duplicate {
            self.replays.push((self.tick + 1 + self.rng.below(3 * LEASE_TICKS), rec));
        }
    }
}

/// What one schedule produced.
struct Outcome {
    posterior: Vec<u8>,
    /// Members were lost for good: the run says so, and its posterior
    /// may differ from the fault-free one.
    degraded: bool,
    converged: bool,
    violations: Vec<String>,
    log: Vec<String>,
}

/// Run `sc` to a completed journal with `workers` simulated workers
/// under the fault schedule drawn from `seed`, restarting the
/// coordinator through `Coordinator::resume` after every park and crash.
fn simulate(sc: &Scenario, faults: Faults, workers: usize, seed: u64) -> Outcome {
    let mem = Mem::default();
    *mem.append_faults.borrow_mut() = (Rng(seed ^ 0xA99E), faults.append, faults.append_budget);
    let mut world = World {
        sc,
        mem: &mem,
        faults,
        rng: Rng(seed),
        tick: 0,
        workers: (0..workers).map(|_| None).collect(),
        replays: Vec::new(),
    };
    let mut posterior = Vec::new();
    let (mut degraded, mut converged) = (false, false);
    let unexpected = |e: CoordError| match e {
        CoordError::Parked(_) if mem.parked.get() => {}
        e => mem.violation(format!("coordinator failed: {e}")),
    };
    'incarnation: for restart in 0.. {
        if restart > faults.append_budget {
            mem.violation("more restarts than injected faults".into());
            break;
        }
        if restart > 0 {
            // An outage: the fleet runs on while the coordinator is down.
            for _ in 0..world.rng.below(4) {
                world.advance();
            }
            world.log("coordinator restarts".into());
        }
        mem.restart();
        let state = JournalState::replay(&mem.journal.borrow());
        let incarnation = match begin_incarnation(&mem, &state, RUN_HASH, sc.max, sc.tolerance) {
            Ok(None) => break,
            Ok(_) if mem.dead.get() => continue,
            Ok(Some(incarnation)) => incarnation,
            Err(e) => {
                unexpected(e);
                continue;
            }
        };
        let metrics = MetricsRegistry::new();
        let setup = Setup {
            gen: &sc.gen,
            central: &sc.central,
            validator: sc.validator.clone(),
            strategy: SubspaceStrategy::FullRecompute,
            initial: sc.initial,
            max: sc.max,
            tolerance: sc.tolerance,
            lease_ms: sc.lease_ms,
            task_attempts: 3,
            requeue_budget: 16,
            trace_run: 0,
            incarnation,
            rec: &NULL,
            metrics: &metrics,
        };
        let mut co = match Coordinator::resume(&state, mem.epochs(), (&mem, &mem, &mem), setup) {
            Ok(_) if mem.dead.get() => continue,
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
            match co.step(&mem.scan(), now) {
                Ok(_) if mem.dead.get() => continue 'incarnation,
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    unexpected(e);
                    continue 'incarnation;
                }
            }
            if world.tick > 20_000 {
                mem.violation("no progress after 20000 ticks".into());
                break 'incarnation;
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
        degraded = !mem.failed.borrow().is_empty();
        converged = co.converged();
        match co.complete(&update) {
            Ok(()) if !mem.dead.get() => break,
            Ok(()) => {}
            Err(e) => unexpected(e),
        }
    }
    let violations = mem.violations.take();
    Outcome { posterior, degraded, converged, violations, log: mem.log.take() }
}

/// `esse_master`'s scenario, run by the binary with two workers and by
/// the library over the in-memory ports: the same posterior bytes.
#[test]
fn library_coordinator_writes_the_posterior_of_esse_master() {
    let dir = std::env::temp_dir().join(format!("esse-coordsim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (domain, hours) = ("monterey:10,10,3", 1.0);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_esse_master"))
        .arg("--workdir")
        .arg(&dir)
        .args(["--domain", domain, "--hours", "1", "--initial", "4", "--max", "8"])
        .args(["--tolerance", "0.15", "--workers", "2"])
        .output()
        .expect("esse_master runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mean = esse::fileio::read_vector(dir.join("mean.vec")).unwrap();
    let prior = esse::fileio::read_subspace(dir.join("prior.sub")).unwrap();
    let central = esse::fileio::read_vector(dir.join("fc_central.vec")).unwrap();
    let (model, _) = esse::cli::build_model(domain).unwrap();
    let gen = PerturbationGenerator::new(&prior, PerturbConfig::default());
    let sc = Scenario {
        validator: ForecastValidator::for_scenario(
            &model.grid,
            &[&mean, &central],
            &prior,
            ValidatorConfig::default(),
        ),
        // What `pert` and then `pemodel` compute for the task's member
        // and seed.
        forecast: Box::new(|m, seed| {
            let ic = gen.perturb(&mean, m as usize);
            model.forecast(&ic, 0.0, hours * 3600.0, Some(seed)).expect("member forecast")
        }),
        gen: PerturbationGenerator::new(&prior, PerturbConfig::default()),
        central,
        initial: 4,
        max: 8,
        tolerance: 0.15,
        lease_ms: 1200,
    };
    let run = simulate(&sc, Faults::default(), 2, 1);
    assert!(run.violations.is_empty(), "{:?}", run.violations);
    let expected = std::fs::read(dir.join("posterior.sub")).unwrap();
    assert_eq!(run.posterior, expected, "library posterior differs from esse_master's");
    let _ = std::fs::remove_dir_all(&dir);
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
    let base: u64 = std::env::var("FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0);
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
    };
    let started = Instant::now();
    let mut degraded = 0;
    for case in 0..schedules {
        let seed = base.wrapping_mul(1_000_003).wrapping_add(case);
        let which = (case % 2) as usize;
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
    }
    let secs = started.elapsed().as_secs_f64();
    println!(
        "{schedules} schedules in {secs:.2} s ({:.0} schedules/s), {degraded} degraded",
        schedules as f64 / secs
    );
}
