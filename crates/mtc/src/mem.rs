//! The in-process resource: a task pool and forecast store in memory
//! behind one lock and one condition variable, and the [`Crew`] of
//! worker threads that claims from it. [`crate::workflow::MtcEsse::run`]
//! runs the [`Coordinator`](crate::coordinator::Coordinator) over them; a
//! simulator wraps the pool to inject faults.
//!
//! A result's forecast stays keyed by its `(member, epoch)` until the
//! coordinator [`commit`](StorePort::commit)s it as the member's own, so
//! a zombie or a losing twin can never overwrite an ingested forecast.
//! With a [`Checkpoint`] attached, its run directory's [`DiskStore`]
//! keeps what a fleet workdir keeps: a commit writes the member's
//! `fc_N.vec` before the journal record that commits it, and the
//! covariance checkpoints and the posterior land beside it.

use crate::coordinator::{PoolPort, Progress, StorePort};
use crate::fault::{FaultKind, FaultPlan};
use crate::journal::Checkpoint;
use crate::pool::{
    ClaimScan, Heartbeat, PoolScan, ResultRecord, TaskSpec, CODE_ATTEMPTS_EXHAUSTED,
};
use crate::rundir::DiskStore;
use crate::task::TaskRecord;
use crate::workflow::Resource;
use esse_core::model::{ForecastError, ForecastModel};
use esse_core::perturb::PerturbationGenerator;
use esse_core::subspace::ErrorSubspace;
use esse_core::EsseError;
use esse_obs::event::Lane;
use esse_obs::recorder::{Recorder, RecorderExt};
use esse_obs::registry::MetricsRegistry;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    /// Claimable tasks with the run-clock time they were seeded.
    pending: BTreeMap<(u64, u32), (TaskSpec, Duration)>,
    claims: BTreeMap<(u64, u32), ClaimScan>,
    results: BTreeMap<(u64, u32), ResultRecord>,
    /// Forecasts of published results, until consumed or committed.
    payloads: HashMap<(u64, u32), Vec<f64>>,
    /// Committed forecasts not yet folded by the checkpoint estimator.
    committed: HashMap<u64, Vec<f64>>,
    /// Bumped by every crew-side change: a claim, a result, a death.
    version: u64,
    workers: usize,
    alive: usize,
    shutdown: bool,
}

/// The task pool and forecast store of one in-process run.
pub struct MemPool<'c> {
    state: Mutex<State>,
    changed: Condvar,
    /// Start of the run clock (task records and enqueue stamps).
    pub t0: Instant,
    rec: &'c dyn Recorder,
    store: Option<&'c DiskStore>,
}

impl<'c> MemPool<'c> {
    /// An empty pool for a crew of `workers`, tracing `sched/enqueued`
    /// into `rec`, persisting through `checkpoint` if one is given.
    pub fn new(
        workers: usize,
        rec: &'c dyn Recorder,
        checkpoint: Option<&'c Checkpoint>,
    ) -> MemPool<'c> {
        let state = Mutex::new(State { workers, alive: workers, ..State::default() });
        let store = checkpoint.map(Checkpoint::store);
        MemPool { state, changed: Condvar::new(), t0: Instant::now(), rec, store }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Apply a crew-side change and wake everyone waiting on the pool.
    fn crew_change<T>(&self, change: impl FnOnce(&mut State) -> T) -> T {
        let mut st = self.lock();
        st.version += 1;
        let out = change(&mut st);
        self.changed.notify_all();
        out
    }

    /// The scan the coordinator steps over, the change counter it was
    /// taken at, and how many crew threads are alive.
    pub fn snapshot(&self) -> (PoolScan, u64, usize) {
        let st = self.lock();
        let scan = PoolScan {
            pending: st.pending.values().map(|&(spec, _)| spec).collect(),
            claims: st.claims.values().copied().collect(),
            results: st.results.values().copied().collect(),
        };
        (scan, st.version, st.alive)
    }

    /// Block until the pool changed since `version` or `until` passes.
    pub fn wait(&self, version: u64, until: Option<Instant>) {
        let mut st = self.lock();
        while st.version == version {
            st = match until {
                None => self.changed.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    let Some(left) = t.checked_duration_since(Instant::now()) else { return };
                    self.changed.wait_timeout(st, left).unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
    }

    /// Claim the lowest pending task with the time it was seeded; with
    /// `block`, wait for one until the pool shuts down.
    pub fn claim(&self, block: bool) -> Option<(TaskSpec, Duration)> {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return None;
            }
            if let Some((key, (spec, at))) = st.pending.pop_first() {
                st.claims.insert(key, ClaimScan { spec, heartbeat: None });
                st.version += 1;
                self.changed.notify_all();
                return Some((spec, at));
            }
            if !block {
                return None;
            }
            st = self.changed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Renew the lease of the claim of `spec` (crew claims never do).
    pub fn heartbeat(&self, spec: &TaskSpec, hb: Heartbeat) {
        if let Some(c) = self.lock().claims.get_mut(&(spec.member, spec.epoch)) {
            c.heartbeat = Some(hb);
        }
    }

    /// Publish a result, with its forecast when it has one; the claim
    /// goes with it.
    pub fn publish(&self, rec: ResultRecord, forecast: Option<Vec<f64>>) {
        let key = (rec.member, rec.epoch);
        self.crew_change(|st| {
            st.claims.remove(&key);
            st.results.insert(key, rec);
            if let Some(xf) = forecast {
                st.payloads.insert(key, xf);
            }
        });
    }

    /// A crew thread died.
    pub fn worker_died(&self) {
        self.crew_change(|st| st.alive -= 1);
    }

    /// End the run: blocked claimers return `None`.
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.changed.notify_all();
    }
}

impl PoolPort for MemPool<'_> {
    fn seed(&self, spec: &TaskSpec) -> io::Result<()> {
        // Stamped before the task is claimable: a crew thread's `task`
        // span never opens before its member's `enqueued` instant.
        let stamp = self.rec.enabled().then(|| self.rec.now_ns());
        let at = self.t0.elapsed();
        let mut st = self.lock();
        st.pending.insert((spec.member, spec.epoch), (*spec, at));
        self.changed.notify_all();
        drop(st);
        if let Some(ts) = stamp {
            // A first issue carries no attempt index.
            let mut args = vec![("member", spec.member.into())];
            if spec.epoch > 1 {
                args.push(("attempt", u64::from(spec.epoch - 1).into()));
            }
            self.rec.instant_at(ts, Lane::Coordinator, "sched", "enqueued", args);
        }
        Ok(())
    }

    fn fence_result(&self, rec: &ResultRecord) -> io::Result<()> {
        self.consume_result(rec)
    }

    fn consume_result(&self, rec: &ResultRecord) -> io::Result<()> {
        let mut st = self.lock();
        st.results.remove(&(rec.member, rec.epoch));
        st.payloads.remove(&(rec.member, rec.epoch));
        Ok(())
    }

    fn remove_claim(&self, spec: &TaskSpec) -> io::Result<()> {
        self.lock().claims.remove(&(spec.member, spec.epoch));
        Ok(())
    }

    fn cancel_pending(&self) -> io::Result<usize> {
        Ok(std::mem::take(&mut self.lock().pending).len())
    }

    fn write_cancel(&self) -> io::Result<()> {
        Ok(())
    }

    fn trace_sidecar(&self, _member: u64, _epoch: u32) -> Option<Vec<u8>> {
        None
    }
}

impl StorePort for MemPool<'_> {
    fn read_forecast(&self, member: u64) -> io::Result<(Vec<f64>, u32)> {
        if let Some(xf) = self.lock().committed.get(&member) {
            return Ok((xf.clone(), 0));
        }
        match self.store {
            Some(store) => store.read_forecast(member),
            None => Err(io::Error::new(io::ErrorKind::NotFound, format!("no forecast {member}"))),
        }
    }

    fn read_result(&self, rec: &ResultRecord) -> io::Result<(Vec<f64>, u32)> {
        let st = self.lock();
        // A result committed before a failed journal append is read again.
        let payload = st.payloads.get(&(rec.member, rec.epoch));
        let xf =
            payload.or_else(|| st.committed.get(&rec.member)).ok_or(io::ErrorKind::NotFound)?;
        Ok((xf.clone(), 0))
    }

    fn commit(&self, rec: &ResultRecord) -> io::Result<()> {
        let mut st = self.lock();
        let Some(xf) = st.payloads.remove(&(rec.member, rec.epoch)) else { return Ok(()) };
        if let Some(store) = self.store {
            store.write_forecast(rec.member, &xf)?;
        }
        st.committed.insert(rec.member, xf);
        Ok(())
    }

    fn quarantine_forecast(&self, member: u64) -> io::Result<()> {
        self.lock().committed.remove(&member);
        self.store.map_or(Ok(()), |store| store.quarantine_forecast(member))
    }

    fn publish_covariance(&self, estimate: &ErrorSubspace, version: u64) -> io::Result<()> {
        self.store.map_or(Ok(()), |store| store.publish_covariance(estimate, version))
    }

    fn release(&self, member: u64) {
        self.lock().committed.remove(&member);
    }

    fn publish_posterior(&self, posterior: &ErrorSubspace) -> io::Result<()> {
        self.store.map_or(Ok(()), |store| store.publish_posterior(posterior))
    }
}

/// The worker threads of one in-process run, and the [`Resource`] that
/// [`crate::workflow::MtcEsse::run`] drives: each thread claims a task
/// from the [`MemPool`], perturbs and forecasts its member under the
/// [`FaultPlan`]'s verdict for the attempt (`epoch − 1`), and publishes.
pub struct Crew<'r, M> {
    /// Where tasks come from and results go; the forecast store too.
    pub pool: MemPool<'r>,
    /// The journal, when the run keeps a checkpoint.
    pub journal: Option<&'r Checkpoint>,
    /// The forecast model every member runs.
    pub model: &'r M,
    /// The mean state members are perturbed about.
    pub mean: &'r [f64],
    /// The member perturbations.
    pub gen: PerturbationGenerator<'r>,
    /// Forecast start and duration (model seconds).
    pub window: (f64, f64),
    /// Injected faults, if any.
    pub faults: Option<&'r FaultPlan>,
    /// Where per-attempt meters go, if anywhere.
    pub metrics: Option<&'r MetricsRegistry>,
    /// One record per member run: its latest attempt.
    pub records: Mutex<BTreeMap<u64, TaskRecord>>,
}

impl<'r, M: ForecastModel> Resource for Crew<'r, M> {
    type Pool = MemPool<'r>;
    type Journal = Option<&'r Checkpoint>;
    type Store = MemPool<'r>;

    fn ports(&self) -> (&MemPool<'r>, &Option<&'r Checkpoint>, &MemPool<'r>) {
        (&self.pool, &self.journal, &self.pool)
    }

    fn serve(
        &self,
        _: &[f64],
        _: u64,
        _: (&MetricsRegistry, Progress<'_>),
        drive: impl FnOnce() -> crate::coordinator::Result,
    ) -> Result<(), EsseError> {
        let workers = self.pool.lock().workers;
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || self.work(w));
            }
            // The threads end with the scope, however `drive` ends.
            let out = drive();
            self.pool.shutdown();
            Ok(out?)
        })
    }

    fn now(&self) -> Duration {
        self.pool.t0.elapsed()
    }

    fn scan(&self, _converged: bool) -> io::Result<(PoolScan, u64, bool)> {
        let (scan, version, alive) = self.pool.snapshot();
        Ok((scan, version, alive > 0))
    }

    fn wait(&self, version: u64, wake: Option<Duration>) {
        self.pool.wait(version, wake.and_then(|t| self.pool.t0.checked_add(t)));
    }

    fn ran(&self) -> Option<(BTreeMap<u64, TaskRecord>, usize)> {
        let records =
            std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner));
        let st = self.pool.lock();
        Some((records, st.workers - st.alive))
    }
}

impl<M: ForecastModel> Crew<'_, M> {
    /// Worker `w`: claim, run and publish until the pool shuts down or
    /// the fault plan kills the worker.
    pub fn work(&self, w: usize) {
        let (pool, rec, lane) = (&self.pool, self.pool.rec, Lane::Worker(w as u32));
        let meters = self.metrics.map(|reg| {
            let hist = |name| reg.histogram(name);
            (reg.counter("esse_task_attempts_total"), hist("esse_member_runtime_ns"))
        });
        let mut tasks = 0;
        while let Some((spec, enqueued)) = pool.claim(true) {
            tasks += 1;
            let (m, attempt) = (spec.member, spec.epoch - 1);
            let (started, t0) = (pool.t0.elapsed(), rec.now_ns());
            let dies = self.faults.is_some_and(|p| p.worker_dies(w, tasks));
            let result = match dies {
                true => Err(ForecastError::Injected(format!("worker {w} died running member {m}"))),
                false => self.forecast(m as usize, attempt, spec.seed),
            };
            let (finished, t1) = (pool.t0.elapsed(), rec.now_ns());
            if let Some((attempts, runtime)) = &meters {
                attempts.inc();
                runtime.observe(finished.saturating_sub(started).as_nanos() as u64);
            }
            if rec.enabled() {
                let args = vec![("member", m.into()), ("attempt", u64::from(attempt).into())];
                rec.begin_at(t0, lane, "task", "member", args.clone());
                if result.is_err() {
                    rec.instant_at(t1, lane, "task", "member_failed", args);
                }
                rec.end_at(t1, lane, "task", "member");
                rec.observe("member", t1.saturating_sub(t0));
            }
            let mut records = self.records.lock().unwrap_or_else(PoisonError::into_inner);
            let r = records.entry(m).or_insert_with(|| TaskRecord::pending(m as usize));
            (r.worker, r.attempts) = (Some(w), r.attempts + 1);
            (r.enqueued_at, r.started_at, r.finished_at) =
                (Some(enqueued), Some(started), Some(finished));
            drop(records);
            let (code, forecast) = match result {
                Ok(xf) => (0, Some(xf)),
                Err(_) => (CODE_ATTEMPTS_EXHAUSTED, None),
            };
            let pid = w as u32;
            pool.publish(
                ResultRecord { member: m, epoch: spec.epoch, code, pid, fc_crc: 0, reason: 0 },
                forecast,
            );
            if dies {
                if rec.enabled() {
                    let args = vec![("worker", w.into())];
                    rec.instant_at(rec.now_ns(), lane, "fault", "worker_died", args);
                }
                pool.worker_died();
                break;
            }
        }
    }

    /// Perturb and forecast member `m`, under the fault plan's verdict
    /// for this attempt.
    fn forecast(&self, m: usize, attempt: u32, seed: u64) -> Result<Vec<f64>, ForecastError> {
        let injected = |what: &str| {
            Err(ForecastError::Injected(format!("{what} (member {m}, attempt {attempt})")))
        };
        match self.faults.and_then(|p| p.fault_for(m, attempt)) {
            Some(FaultKind::Crash) => return injected("injected crash"),
            Some(FaultKind::TransientIo) => return injected("transient I/O error"),
            // Straggler: the work happens, just late.
            Some(FaultKind::Straggle(extra)) => std::thread::sleep(extra),
            None => {}
        }
        let x0 = self.gen.perturb(self.mean, m);
        let (start, duration) = self.window;
        let mut forecast = self.model.forecast(&x0, start, duration, Some(seed));
        // Semantic payload corruption: the forecast "succeeds" but its
        // bytes are wrong — only the ingest validator can catch it.
        if let (Ok(xf), Some(p)) = (&mut forecast, self.faults) {
            if let Some(kind) = p.corruption_for(m, attempt) {
                kind.apply(p.seed, m as u64, (xf.len() / 5).max(1), xf);
            }
        }
        forecast
    }
}
