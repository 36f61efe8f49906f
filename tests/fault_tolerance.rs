//! Fault-injection invariants on the MTC workflow (paper §4 point 3:
//! losses on shared resources must be *visible*, never systematic or
//! silent).
//!
//! Hand-rolled seeded property sweeps rather than `proptest`: each case
//! derives a fault plan and retry policy deterministically from a case
//! index, so every case is reproducible by its number alone. The base
//! seed can be shifted through the `FAULT_SEED` environment variable,
//! which the CI matrix uses to widen coverage across jobs without
//! sacrificing reproducibility.

use esse::core::adaptive::EnsembleSchedule;
use esse::core::model::LinearGaussianModel;
use esse::core::subspace::ErrorSubspace;
use esse::mtc::fault::{FaultPlan, RetryPolicy, RunHealth};
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Base seed for the case generator; CI shifts it per matrix job.
fn base_seed() -> u64 {
    std::env::var("FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// SplitMix64 — the same generator family the fault plan uses, so the
/// case stream is stable across platforms.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(z: u64) -> f64 {
    (mix(z) >> 11) as f64 / (1u64 << 53) as f64
}

fn model6() -> LinearGaussianModel {
    LinearGaussianModel::diagonal(&[0.98, 0.95, 0.3, 0.2, 0.15, 0.1], 0.05, 1.0)
}

fn prior6() -> ErrorSubspace {
    let mut rng = StdRng::seed_from_u64(7);
    ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0)
}

fn faulty_config(n: usize, workers: usize, plan: FaultPlan, retry: RetryPolicy) -> MtcConfig {
    MtcConfig {
        workers,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(n, n),
        tolerance: 1e-12, // fixed-size pool: every member is planned work
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        faults: Some(plan),
        retry,
        ..MtcConfig::default()
    }
}

/// The central invariant: whatever faults are injected, a run that
/// returns `Ok` either covers the full planned member set (`Full`) or
/// says exactly how much it lost (`Degraded { coverage, .. }` consistent
/// with the failure counts). Losses are never silent.
#[test]
fn faults_yield_full_coverage_or_explicit_degraded_never_silent() {
    let model = model6();
    let prior = prior6();
    let mean = vec![0.0; 6];
    let seed = base_seed();

    for case in 0..24u64 {
        let s = seed.wrapping_mul(0x1000_0001).wrapping_add(case);
        let crash = 0.30 * unit(s);
        let io = 0.30 * unit(s ^ 0xA5A5);
        let straggle = 0.25 * unit(s ^ 0x5A5A);
        let max_attempts = 1 + (mix(s ^ 0xC0FF) % 4) as u32; // 1..=4
        let workers = 1 + (mix(s ^ 0xBEEF) % 4) as usize; // 1..=4
        let plan = FaultPlan::seeded(mix(s))
            .with_crashes(crash)
            .with_transient_io(io)
            .with_stragglers(straggle, Duration::from_millis(2));
        let retry = if max_attempts == 1 {
            RetryPolicy::disabled()
        } else {
            RetryPolicy::retries(max_attempts).with_backoff(Duration::from_micros(200), 2.0, 0.3)
        };

        let cfg = faulty_config(16, workers, plan, retry);
        let out = MtcEsse::new(&model, cfg)
            .run(RunInit::new(&mean, &prior))
            .unwrap_or_else(|e| panic!("case {case}: run errored: {e}"));

        // Every planned member is resolved one way or another.
        let resolved =
            out.members_used + out.members_failed + out.members_wasted + out.members_cancelled;
        assert!(
            resolved >= 16,
            "case {case}: only {resolved} of 16 members resolved (silent loss)"
        );

        match out.health {
            RunHealth::Full => {
                assert_eq!(
                    out.members_failed, 0,
                    "case {case}: Full health but {} permanent failures",
                    out.members_failed
                );
            }
            RunHealth::Degraded { coverage, lost_members, .. } => {
                assert!(lost_members > 0, "case {case}: Degraded with zero losses");
                assert!(
                    (0.0..1.0).contains(&coverage),
                    "case {case}: degraded coverage {coverage} out of range"
                );
                // The coverage figure must match the bookkeeping.
                let planned = out.records.len().max(1);
                let expected = (planned - lost_members) as f64 / planned as f64;
                assert!(
                    (coverage - expected).abs() < 1e-12,
                    "case {case}: coverage {coverage} != (planned-lost)/planned {expected}"
                );
            }
            _ => {}
        }
    }
}

/// With a generous retry budget and recoverable fault rates, every
/// member must come back: the ensemble converges (or exhausts Nmax)
/// with *full* coverage.
#[test]
fn retries_recover_moderate_fault_rates_to_full_coverage() {
    let model = model6();
    let prior = prior6();
    let mean = vec![0.0; 6];
    let seed = base_seed();

    for case in 0..10u64 {
        let s = seed.wrapping_mul(0x2000_0003).wrapping_add(case);
        let rate = 0.05 + 0.10 * unit(s); // 5%..15%
        let plan = FaultPlan::seeded(mix(s)).with_crashes(rate).with_transient_io(rate * 0.5);
        let cfg = faulty_config(16, 4, plan, RetryPolicy::retries(6));
        let out = MtcEsse::new(&model, cfg)
            .run(RunInit::new(&mean, &prior))
            .unwrap_or_else(|e| panic!("case {case}: run errored: {e}"));
        assert_eq!(out.members_failed, 0, "case {case}: permanent failures at rate {rate:.3}");
        assert!(
            matches!(out.health, RunHealth::Full),
            "case {case}: health {:?} despite 6-attempt budget",
            out.health
        );
    }
}

/// Disabling retries under injected crashes must degrade *explicitly*:
/// failed members are counted and the health verdict carries the hole.
#[test]
fn no_retry_faulty_runs_degrade_explicitly() {
    let model = model6();
    let prior = prior6();
    let mean = vec![0.0; 6];
    // A rate high enough that 24 members statistically cannot all pass.
    let plan = FaultPlan::seeded(base_seed().wrapping_add(3)).with_crashes(0.35);
    let cfg = faulty_config(24, 4, plan, RetryPolicy::disabled());
    let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).expect("run");
    assert!(out.members_failed > 0, "0.35 crash rate produced no failures");
    assert!(out.health.is_degraded(), "failures did not surface in health");
    assert!(out.faults.retries == 0, "disabled policy still retried");
}

/// Regression: a zero-rate fault plan must not perturb the RNG stream or
/// the result — the subspace is bitwise identical to a plan-free run.
#[test]
fn zero_rate_fault_plan_is_bitwise_identical_to_no_plan() {
    let model = model6();
    let prior = prior6();
    let mean = vec![0.0; 6];

    let clean = MtcConfig {
        workers: 1, // single worker: deterministic completion order
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(12, 12),
        tolerance: 1e-12,
        duration: 10.0,
        max_rank: 6,
        svd_stride: 12,
        ..MtcConfig::default()
    };
    let zeroed = MtcConfig {
        faults: Some(FaultPlan::seeded(99)), // seeded but every rate is zero
        retry: RetryPolicy::retries(3),
        ..clean.clone()
    };

    let a = MtcEsse::new(&model, clean).run(RunInit::new(&mean, &prior)).expect("clean run");
    let b = MtcEsse::new(&model, zeroed).run(RunInit::new(&mean, &prior)).expect("zeroed run");

    assert!(b.faults.is_clean(), "zero-rate plan reported recovery actions");
    assert_eq!(a.subspace.rank(), b.subspace.rank());
    assert_eq!(a.subspace.variances, b.subspace.variances, "variances diverged bitwise");
    assert_eq!(a.subspace.modes.as_slice(), b.subspace.modes.as_slice(), "modes diverged bitwise");
    assert_eq!(a.central, b.central, "central forecast diverged bitwise");
}

/// The per-task timeout converts stragglers into retries: with a short
/// timeout and long injected delays the workflow still finishes with
/// full coverage, and the timeout counter shows it fired.
///
/// Pinned seed (unlike the sweeps above): full recovery is only
/// guaranteed when no member stalls on every attempt in its budget, so
/// the scenario is fixed; the seed-matrix sweeps cover arbitrary draws
/// under the weaker never-silent invariant.
#[test]
fn task_timeout_reclaims_stragglers() {
    let model = model6();
    let prior = prior6();
    let mean = vec![0.0; 6];
    let plan = FaultPlan::seeded(11).with_stragglers(0.5, Duration::from_millis(40));
    let retry = RetryPolicy::retries(6).with_timeout(Duration::from_millis(10));
    let cfg = faulty_config(12, 4, plan, retry);
    let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).expect("run");
    assert!(out.faults.timeouts > 0, "no straggler hit the 10ms timeout");
    assert_eq!(out.members_failed, 0, "timed-out members were not recovered");
    assert!(matches!(out.health, RunHealth::Full));
}

/// Speculative execution races a second attempt against a straggler and
/// keeps whichever finishes first; the loser is cancelled, accounted,
/// and the member is counted exactly once. Pinned seed for the same
/// reason as [`task_timeout_reclaims_stragglers`].
#[test]
fn speculation_races_stragglers_and_accounts_both_attempts() {
    let model = model6();
    let prior = prior6();
    let mean = vec![0.0; 6];
    // A minority of long stragglers: the fast majority keeps the mean
    // runtime estimate low, so the scan reliably flags the stalls.
    let plan = FaultPlan::seeded(17).with_stragglers(0.25, Duration::from_millis(120));
    let retry = RetryPolicy::retries(3).with_speculation(3.0);
    let cfg = faulty_config(16, 4, plan, retry);
    let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).expect("run");
    assert!(out.faults.speculative_launches > 0, "straggler plan never triggered speculation");
    assert_eq!(
        out.faults.speculative_wins + out.faults.speculative_losses,
        out.faults.speculative_launches,
        "speculative attempts not fully resolved"
    );
    assert_eq!(out.members_failed, 0);
    assert!(matches!(out.health, RunHealth::Full));
    // No member is double-counted by the racing attempts.
    assert!(out.members_used <= 16);
}
