//! Fault injection and recovery policy for the MTC engine.
//!
//! Paper §4 point 3: member forecasts die, get reassigned by the
//! scheduler, or straggle past the forecast deadline, and ESSE must
//! still deliver a statistically sound subspace. This module supplies
//! both halves of testing that claim:
//!
//! * [`FaultPlan`] — a deterministic, seedable description of *what goes
//!   wrong*: member task crashes, transient I/O errors (clear on retry),
//!   injected latency (stragglers), and worker death. Every fault is a
//!   pure function of `(seed, member, attempt)`, so a plan replays
//!   identically across runs, hosts, and worker counts.
//! * [`RetryPolicy`] — *what the engine does about it*: a per-member
//!   attempt budget, exponential backoff with jitter drawn from the
//!   workflow's own RNG, a per-task timeout distinct from the global
//!   `Tmax` deadline, and straggler speculation (re-launch a slow member
//!   on a free worker, first finisher wins).
//!
//! The engine reports what happened through [`FaultReport`] counters and
//! classifies the run with [`RunHealth`]: a run that lost members
//! permanently is never a *silent* partial ensemble — it is explicitly
//! `Degraded` with its coverage fraction.

use crate::task::TaskId;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::Duration;

/// Uniform deterministic draw in `[0, 1)` from `(seed, a, b)` — the
/// shared hash behind both live fault injection ([`FaultPlan`]) and the
/// simulator's node-failure model. SplitMix64 over a mix of the three
/// inputs; the odd multipliers decorrelate `a`/`b` from the base seed.
pub fn unit_draw(seed: u64, a: u64, b: u64) -> f64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(b.wrapping_add(1).wrapping_mul(0xE703_7ED1_A0B4_28DB));
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// One injected fault, as seen by a worker about to run an attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The member task dies (model panic / node crash). Independent draw
    /// per attempt, so retries can succeed.
    Crash,
    /// A transient I/O error (NFS hiccup, staging race). Only fires on
    /// early attempts (see [`FaultPlan::transient_max_attempt`]), so a
    /// retry is guaranteed to clear it.
    TransientIo,
    /// The attempt runs to completion but takes this much *extra* time —
    /// the paper's straggler, the target of per-task timeouts and
    /// speculation.
    Straggle(Duration),
}

/// A semantic payload corruption: the forecast *completes* but its
/// bytes are wrong. Unlike [`FaultKind`], nothing crashes — the only
/// defense is the semantic validator on the ingest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// A NaN planted at a seeded index. Applied *before* the worker's
    /// self-check, so the worker itself catches it and publishes a
    /// typed `REJECTED` result (saving the upload).
    NanInject,
    /// The whole trajectory scaled into numerical blowup. Applied
    /// *after* the self-check (a worker lying about its own health), so
    /// only the coordinator's re-validation catches it.
    Blowup,
    /// An off-by-one-block payload: the state blocks rotated by one
    /// field, so salinity lands in the temperature slot. Also applied
    /// after the self-check.
    BlockShift,
}

impl CorruptionKind {
    /// Does this corruption slip past the worker self-check (applied
    /// after it), leaving the coordinator's re-validation as the only
    /// gate?
    pub fn bypasses_self_check(&self) -> bool {
        !matches!(self, CorruptionKind::NanInject)
    }

    /// Corrupt `payload` in place, deterministically for
    /// `(seed, member)`. `block` is the per-field block length used by
    /// [`CorruptionKind::BlockShift`] (one 3-D field, so temperature
    /// shifts into the velocity slot and salinity into temperature).
    pub fn apply(&self, seed: u64, member: u64, block: usize, payload: &mut [f64]) {
        if payload.is_empty() {
            return;
        }
        match self {
            CorruptionKind::NanInject => {
                let idx = (unit_draw(seed ^ CORRUPT_INDEX_SALT, member, 0) * payload.len() as f64)
                    as usize;
                payload[idx.min(payload.len() - 1)] = f64::NAN;
            }
            CorruptionKind::Blowup => {
                for x in payload.iter_mut() {
                    *x *= 1e8;
                }
            }
            CorruptionKind::BlockShift => {
                let shift = block.min(payload.len());
                payload.rotate_left(shift);
            }
        }
    }
}

/// Salt folding the corruption stream away from the crash/transient/
/// straggler draw, so turning corruption on (or off) never changes an
/// existing seeded chaos schedule.
const CORRUPT_STREAM_SALT: u64 = 0x5E3A_271C_FA17_B00F;

/// Salt for the corruption-kind draw (independent of the rate draw).
const CORRUPT_KIND_SALT: u64 = 0x9C2F_44D1_037E_58A3;

/// Salt for the NaN-placement index draw.
const CORRUPT_INDEX_SALT: u64 = 0x1D5E_ED00_0000_0001;

/// A worker-death instruction: worker `worker` dies while executing its
/// `after_tasks`-th task (1-based), failing that task and leaving the
/// pool one slot smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDeath {
    /// Worker index (0-based, as in [`esse_obs::Lane::Worker`]).
    pub worker: usize,
    /// The task count at which the worker dies (1 = its first task).
    pub after_tasks: usize,
}

/// Deterministic, seedable fault plan.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// `(member, attempt)` from a SplitMix64 hash of the seed — no global
/// RNG state, so injecting faults never perturbs the perturbation or
/// model-error streams, and a zero-rate plan is bit-identical to no
/// plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Hash seed; two plans with the same seed and rates inject the same
    /// faults.
    pub seed: u64,
    /// Probability an attempt crashes outright.
    pub crash_rate: f64,
    /// Probability an attempt hits a transient I/O error.
    pub transient_io_rate: f64,
    /// Probability an attempt straggles.
    pub straggler_rate: f64,
    /// Extra latency added to a straggling attempt.
    pub straggler_delay: Duration,
    /// Transient I/O faults only fire on attempts `< this` (default 1:
    /// first attempt only, so one retry always clears them).
    pub transient_max_attempt: u32,
    /// Probability an attempt's *payload* is semantically corrupted
    /// ([`CorruptionKind`]); drawn from a salted stream independent of
    /// the crash/transient/straggler ladder.
    pub corrupt_rate: f64,
    /// Scripted worker deaths.
    pub worker_deaths: Vec<WorkerDeath>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline arm in sweeps).
    pub fn none() -> FaultPlan {
        FaultPlan::seeded(0)
    }

    /// Zero-rate plan with the given seed; compose with the `with_*`
    /// builders.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            crash_rate: 0.0,
            transient_io_rate: 0.0,
            straggler_rate: 0.0,
            straggler_delay: Duration::from_millis(20),
            transient_max_attempt: 1,
            corrupt_rate: 0.0,
            worker_deaths: Vec::new(),
        }
    }

    /// Set the crash rate.
    pub fn with_crashes(mut self, rate: f64) -> FaultPlan {
        self.crash_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the transient-I/O rate.
    pub fn with_transient_io(mut self, rate: f64) -> FaultPlan {
        self.transient_io_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Set the straggler rate and injected delay.
    pub fn with_stragglers(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.straggler_rate = rate.clamp(0.0, 1.0);
        self.straggler_delay = delay;
        self
    }

    /// Set the payload-corruption rate.
    pub fn with_corruption(mut self, rate: f64) -> FaultPlan {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Script a worker death.
    pub fn with_worker_death(mut self, worker: usize, after_tasks: usize) -> FaultPlan {
        self.worker_deaths.push(WorkerDeath { worker, after_tasks: after_tasks.max(1) });
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.crash_rate > 0.0
            || self.transient_io_rate > 0.0
            || self.straggler_rate > 0.0
            || self.corrupt_rate > 0.0
            || !self.worker_deaths.is_empty()
    }

    /// Uniform draw in `[0, 1)` for `(member, attempt)`.
    fn draw(&self, member: TaskId, attempt: u32) -> f64 {
        unit_draw(self.seed, member as u64, attempt as u64)
    }

    /// The fault injected into attempt `attempt` of member `member`
    /// (`None` = the attempt runs clean). Deterministic per
    /// `(seed, member, attempt)`.
    pub fn fault_for(&self, member: TaskId, attempt: u32) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        let u = self.draw(member, attempt);
        if u < self.crash_rate {
            return Some(FaultKind::Crash);
        }
        if u < self.crash_rate + self.transient_io_rate {
            // Transient faults clear once the attempt counter passes the
            // window — that is what makes them transient.
            if attempt < self.transient_max_attempt {
                return Some(FaultKind::TransientIo);
            }
            return None;
        }
        if u < self.crash_rate + self.transient_io_rate + self.straggler_rate {
            return Some(FaultKind::Straggle(self.straggler_delay));
        }
        None
    }

    /// The payload corruption injected into attempt `attempt` of member
    /// `member` (`None` = the payload publishes clean). Drawn from a
    /// stream salted away from [`FaultPlan::fault_for`], so enabling
    /// corruption never reshuffles an existing crash/straggler
    /// schedule, and a zero-rate plan is bit-identical to none.
    pub fn corruption_for(&self, member: TaskId, attempt: u32) -> Option<CorruptionKind> {
        if self.corrupt_rate <= 0.0 {
            return None;
        }
        let u = unit_draw(self.seed ^ CORRUPT_STREAM_SALT, member as u64, attempt as u64);
        if u >= self.corrupt_rate {
            return None;
        }
        // Second, independent draw picks the kind uniformly.
        let k = unit_draw(self.seed ^ CORRUPT_KIND_SALT, member as u64, attempt as u64);
        Some(match (k * 3.0) as u32 {
            0 => CorruptionKind::NanInject,
            1 => CorruptionKind::Blowup,
            _ => CorruptionKind::BlockShift,
        })
    }

    /// Does worker `worker` die on its `tasks_started`-th task (1-based)?
    pub fn worker_dies(&self, worker: usize, tasks_started: usize) -> bool {
        self.worker_deaths.iter().any(|d| d.worker == worker && d.after_tasks == tasks_started)
    }
}

/// Recovery policy for member failures, stragglers and timeouts.
///
/// The default policy (`max_attempts == 1`, no timeout, no speculation)
/// reproduces the pre-fault-tolerance engine exactly: failures are
/// tolerated and counted, nothing is retried, and no extra RNG stream is
/// consumed — zero-fault runs stay bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per member (1 = retries disabled).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplicative backoff growth per retry (≥ 1).
    pub backoff_factor: f64,
    /// Jitter as a fraction of the computed backoff, in `[0, 1]`, drawn
    /// from the workflow's own seeded RNG (no global entropy).
    pub jitter: f64,
    /// Per-task runtime budget, distinct from the global `Tmax`
    /// deadline: an attempt exceeding it is discarded and retried.
    pub task_timeout: Option<Duration>,
    /// Straggler speculation: re-launch a slow member on a free worker
    /// and take the first finisher.
    pub speculative: bool,
    /// Speculate when an attempt has run longer than this multiple of
    /// the mean member runtime (> 1).
    pub speculation_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            backoff_factor: 2.0,
            jitter: 0.0,
            task_timeout: None,
            speculative: false,
            speculation_factor: 3.0,
        }
    }
}

impl RetryPolicy {
    /// Retries disabled (the pre-fault-tolerance behaviour).
    pub fn disabled() -> RetryPolicy {
        RetryPolicy::default()
    }

    /// Allow up to `max_attempts` attempts per member with a small
    /// default backoff; compose with the `with_*` builders.
    pub fn retries(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        }
    }

    /// Set exponential backoff parameters.
    pub fn with_backoff(mut self, base: Duration, factor: f64, jitter: f64) -> RetryPolicy {
        self.base_backoff = base;
        self.backoff_factor = factor.max(1.0);
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Set the per-task timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> RetryPolicy {
        self.task_timeout = Some(timeout);
        self
    }

    /// A claim's lease in whole milliseconds (≥ 1): the task timeout,
    /// unbounded without one.
    pub fn lease_ms(&self) -> u64 {
        self.task_timeout.map_or(u64::MAX, |t| t.as_millis().max(1) as u64)
    }

    /// Enable straggler speculation at the given runtime multiple.
    pub fn with_speculation(mut self, factor: f64) -> RetryPolicy {
        self.speculative = true;
        self.speculation_factor = factor.max(1.0);
        self
    }

    /// Are retries enabled at all?
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }

    /// Backoff before issuing the retry that follows `prior_attempts`
    /// completed attempts (so the first retry passes 1). Jitter, when
    /// configured, is drawn from `rng` — the workflow owns and seeds it,
    /// keeping the delay stream reproducible.
    pub fn backoff_delay(&self, prior_attempts: u32, rng: &mut StdRng) -> Duration {
        let exp = prior_attempts.saturating_sub(1).min(20);
        let base = self.base_backoff.as_secs_f64() * self.backoff_factor.powi(exp as i32);
        let jit = if self.jitter > 0.0 { base * self.jitter * rng.gen::<f64>() } else { 0.0 };
        Duration::from_secs_f64(base + jit)
    }

    /// Validate the policy (builder support).
    pub fn validate(&self) -> Result<(), esse_core::ConfigError> {
        use esse_core::ConfigError;
        if self.max_attempts == 0 {
            return Err(ConfigError::new("retry.max_attempts", "must be at least 1"));
        }
        if self.backoff_factor < 1.0 || !self.backoff_factor.is_finite() {
            return Err(ConfigError::new("retry.backoff_factor", "must be finite and ≥ 1"));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(ConfigError::new("retry.jitter", "must be within [0, 1]"));
        }
        if self.speculative && self.speculation_factor < 1.0 {
            return Err(ConfigError::new("retry.speculation_factor", "must be ≥ 1"));
        }
        Ok(())
    }
}

/// What the recovery machinery actually did during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Retry attempts scheduled (backoff re-enqueues).
    pub retries: usize,
    /// Attempts discarded for exceeding the per-task timeout.
    pub timeouts: usize,
    /// Speculative duplicate launches.
    pub speculative_launches: usize,
    /// Members resolved by the speculative copy (the original lost).
    pub speculative_wins: usize,
    /// Duplicate results discarded because the member was already
    /// resolved (wasted speculative work).
    pub speculative_losses: usize,
    /// Workers that died during the run.
    pub workers_died: usize,
    /// Payloads quarantined by the semantic validator (worker
    /// rejections and coordinator re-validation combined).
    pub quarantined: usize,
    /// Quarantined members healed by a replacement forecast.
    pub replaced: usize,
}

impl FaultReport {
    /// Did anything at all go wrong / get recovered?
    pub fn is_clean(&self) -> bool {
        *self == FaultReport::default()
    }
}

/// Statistical health of a finished run.
///
/// The contract (enforced by the engine, property-tested in
/// `tests/fault_tolerance.rs`): a run either converges with every
/// planned member accounted for, or it is explicitly `Degraded` — never
/// a silent partial ensemble.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunHealth {
    /// No permanent member losses; any cancelled/wasted members were
    /// policy-sanctioned post-convergence cancellations.
    Full,
    /// Members were lost permanently (retry budgets exhausted, deadline
    /// truncation): the subspace stands on a smaller ensemble.
    Degraded {
        /// Fraction of planned members whose results entered the run.
        coverage: f64,
        /// Members lost permanently to crash-shaped faults (never
        /// produced an ingestible payload).
        lost_members: usize,
        /// Members quarantined by the semantic validator and *not*
        /// healed — the replacement budget ran out. Distinct from
        /// `lost_members`: these produced payloads, but wrong ones.
        quarantined: usize,
        /// Quarantined members that *were* healed by a replacement
        /// (context for the breakdown; healed members still count
        /// toward coverage).
        replaced: usize,
    },
}

impl RunHealth {
    /// True for the degraded arm.
    pub fn is_degraded(&self) -> bool {
        matches!(self, RunHealth::Degraded { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fault_plan_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7).with_crashes(0.3).with_stragglers(0.2, Duration::ZERO);
        let b = FaultPlan::seeded(7).with_crashes(0.3).with_stragglers(0.2, Duration::ZERO);
        let c = FaultPlan::seeded(8).with_crashes(0.3).with_stragglers(0.2, Duration::ZERO);
        let sig = |p: &FaultPlan| (0..200).map(|m| p.fault_for(m, 0)).collect::<Vec<_>>();
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&c));
    }

    #[test]
    fn crash_rate_is_roughly_honoured() {
        let p = FaultPlan::seeded(42).with_crashes(0.25);
        let crashes = (0..4000).filter(|&m| p.fault_for(m, 0) == Some(FaultKind::Crash)).count();
        let rate = crashes as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed crash rate {rate}");
    }

    #[test]
    fn attempts_draw_independently_so_retries_can_succeed() {
        let p = FaultPlan::seeded(1).with_crashes(0.5);
        // Among members whose first attempt crashes, roughly half of the
        // second attempts must run clean.
        let crashed: Vec<usize> =
            (0..2000).filter(|&m| p.fault_for(m, 0) == Some(FaultKind::Crash)).collect();
        assert!(crashed.len() > 800);
        let recovered = crashed.iter().filter(|&&m| p.fault_for(m, 1).is_none()).count();
        let frac = recovered as f64 / crashed.len() as f64;
        assert!((frac - 0.5).abs() < 0.06, "second-attempt recovery {frac}");
    }

    #[test]
    fn transient_io_clears_after_the_window() {
        let p = FaultPlan::seeded(3).with_transient_io(1.0);
        for m in 0..50 {
            assert_eq!(p.fault_for(m, 0), Some(FaultKind::TransientIo));
            assert_eq!(p.fault_for(m, 1), None, "retry must clear a transient fault");
        }
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert!((0..100).all(|m| p.fault_for(m, 0).is_none()));
    }

    #[test]
    fn worker_death_schedule() {
        let p = FaultPlan::seeded(0).with_worker_death(2, 3);
        assert!(!p.worker_dies(2, 2));
        assert!(p.worker_dies(2, 3));
        assert!(!p.worker_dies(1, 3));
    }

    #[test]
    fn backoff_grows_exponentially_with_jitter_bounded() {
        let pol = RetryPolicy::retries(5).with_backoff(Duration::from_millis(10), 2.0, 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        let d1 = pol.backoff_delay(1, &mut rng);
        let d3 = pol.backoff_delay(3, &mut rng);
        assert!(d1 >= Duration::from_millis(10) && d1 <= Duration::from_millis(15));
        assert!(d3 >= Duration::from_millis(40) && d3 <= Duration::from_millis(60));
    }

    #[test]
    fn default_policy_is_disabled_and_valid() {
        let pol = RetryPolicy::default();
        assert!(!pol.enabled());
        assert!(pol.validate().is_ok());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(pol.backoff_delay(1, &mut rng), Duration::ZERO);
    }

    #[test]
    fn policy_validation_rejects_bad_values() {
        let mut pol = RetryPolicy::retries(3);
        pol.backoff_factor = 0.5;
        assert!(pol.validate().is_err());
        let mut pol = RetryPolicy::retries(3);
        pol.jitter = 1.5;
        assert!(pol.validate().is_err());
    }

    #[test]
    fn health_reports_degradation() {
        assert!(!RunHealth::Full.is_degraded());
        let h = RunHealth::Degraded { coverage: 0.9, lost_members: 3, quarantined: 0, replaced: 0 };
        assert!(h.is_degraded());
    }

    #[test]
    fn corruption_stream_is_independent_of_the_fault_ladder() {
        let clean = FaultPlan::seeded(7).with_crashes(0.3).with_transient_io(0.2);
        let corrupt = clean.clone().with_corruption(0.5);
        // Turning corruption on never reshuffles the existing schedule.
        let sig = |p: &FaultPlan| (0..500).map(|m| p.fault_for(m, 0)).collect::<Vec<_>>();
        assert_eq!(sig(&clean), sig(&corrupt));
        // Zero rate draws nothing; the rate is roughly honoured and all
        // three kinds occur.
        assert!((0..500).all(|m| clean.corruption_for(m, 0).is_none()));
        let kinds: Vec<CorruptionKind> =
            (0..2000).filter_map(|m| corrupt.corruption_for(m, 0)).collect();
        let rate = kinds.len() as f64 / 2000.0;
        assert!((rate - 0.5).abs() < 0.05, "observed corruption rate {rate}");
        for k in [CorruptionKind::NanInject, CorruptionKind::Blowup, CorruptionKind::BlockShift] {
            assert!(kinds.contains(&k), "{k:?} never drawn");
        }
        // Determinism: same plan, same schedule.
        let again: Vec<CorruptionKind> =
            (0..2000).filter_map(|m| corrupt.corruption_for(m, 0)).collect();
        assert_eq!(kinds, again);
    }

    #[test]
    fn corruption_kinds_apply_deterministically() {
        let base: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        // NaN injection plants exactly one NaN at a seeded index.
        let mut p = base.clone();
        CorruptionKind::NanInject.apply(11, 3, 16, &mut p);
        assert_eq!(p.iter().filter(|x| x.is_nan()).count(), 1);
        let mut q = base.clone();
        CorruptionKind::NanInject.apply(11, 3, 16, &mut q);
        assert_eq!(
            p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            q.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        // Blowup scales everything; block shift rotates by one block.
        let mut p = base.clone();
        CorruptionKind::Blowup.apply(11, 3, 16, &mut p);
        assert_eq!(p[2], base[2] * 1e8);
        let mut p = base.clone();
        CorruptionKind::BlockShift.apply(11, 3, 16, &mut p);
        assert_eq!(p[0], base[16]);
        assert_eq!(p[63], base[15]);
        // Only NaN injection is caught worker-side.
        assert!(!CorruptionKind::NanInject.bypasses_self_check());
        assert!(CorruptionKind::Blowup.bypasses_self_check());
        assert!(CorruptionKind::BlockShift.bypasses_self_check());
    }
}
