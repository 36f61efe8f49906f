//! From the benchmark's `--seed` to the scenario's `--base-seed`.
//!
//! `esse_master` always runs the semantic ingest gate, whose
//! ensemble-outlier test compares a member's deviation statistic with
//! the median/MAD of the decided prefix as soon as five members are
//! decided. With so few samples the MAD is now and then tiny by chance,
//! and a perfectly healthy member scores a robust z above the gate's 8:
//! a few percent of base seeds lose a member that way (the replacement
//! is the same deterministic forecast, so the requeue budget runs out
//! and the member is journalled `MemberFailed`). A benchmark workload
//! must not fail an operation, so the fleet workloads draw their base
//! seed from a list vetted with [`gate_margin`]: every member of every
//! listed seed stays below **half** the gate, which leaves room for a
//! later change to move the numerics without tripping it. Re-vet with
//! `perf --vet-seeds FROM COUNT` when a workload is resized.
//!
//! The in-process workload attaches no validator and uses the seed as
//! given.

use crate::workloads::{Kind, Scenario, ScenarioInputs, Workload, WORKLOADS};
use esse::core::perturb::{PerturbConfig, PerturbationGenerator};
use esse::core::validate::{ForecastValidator, ValidatorConfig};
use esse::core::ForecastModel;

/// Largest robust z a vetted seed may score (the gate quarantines at 8).
pub const MARGIN_Z: f64 = 4.0;

/// Base seeds vetted for `compute_disk`.
pub const COMPUTE_SEEDS: [u64; 16] = [2, 4, 6, 15, 18, 20, 21, 22, 23, 24, 26, 27, 28, 31, 32, 34];
/// Base seeds vetted for `manytask_disk` / `manytask_tcp`.
pub const MANYTASK_SEEDS: [u64; 16] = [4, 5, 6, 8, 9, 12, 13, 14, 15, 16, 17, 19, 20, 25, 27, 28];

/// The `--base-seed` (or in-process RNG seed) benchmark seed `seed`
/// stands for on workload `w`.
pub fn scenario_seed(w: &Workload, seed: u64) -> u64 {
    w.vetted_seeds.map_or(seed, |list| list[(seed % list.len() as u64) as usize])
}

/// Replay the coordinator's ingest gate for `base_seed` in process:
/// same prior, same perturbations and forecast seeds. Returns the largest
/// robust z any member scores against the decided sets it could meet, or
/// why a member would be quarantined outright.
pub fn gate_margin(sc: &Scenario, base_seed: u64) -> Result<f64, String> {
    let ScenarioInputs { model, mean, prior } = ScenarioInputs::generate(sc, base_seed);
    let gen =
        PerturbationGenerator::new(&prior, PerturbConfig { base_seed, ..PerturbConfig::default() });
    let horizon = sc.hours * 3600.0;
    let forecast = |member: usize| {
        let ic = gen.perturb(&mean, member);
        model
            .forecast(&ic, 0.0, horizon, Some(gen.forecast_seed(member)))
            .map_err(|e| format!("member {member} forecast failed: {e}"))
    };
    // Two lanes, like the fleet: even and odd members.
    let lane = |first: usize| (first..sc.max).step_by(2).map(forecast).collect::<Vec<_>>();
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| lane(1));
        (lane(0), odd.join().expect("forecast lane"))
    });
    let central =
        model.forecast(&mean, 0.0, horizon, None).map_err(|e| format!("central forecast: {e}"))?;
    let mut lanes = [even.into_iter(), odd.into_iter()];
    let forecasts: Vec<Vec<f64>> = (0..sc.max)
        .map(|member| lanes[member % 2].next().expect("one forecast per member"))
        .collect::<Result<_, _>>()?;

    // Results arrive in index order give or take a task or two, and the
    // gate judges a member against whatever is decided at that moment:
    // score every member against each decided set it could plausibly
    // meet — members 0..=hi without itself, for hi within two of it.
    let cfg = ValidatorConfig::default();
    let fresh = ForecastValidator::for_scenario(&model.model.grid, &[&mean, &central], &prior, cfg);
    let mut worst = 0.0_f64;
    for (member, x) in forecasts.iter().enumerate() {
        if !fresh.validate(x).is_pass() {
            return Err(format!("member {member} fails the member-local checks"));
        }
        for hi in member.saturating_sub(2)..=(member + 2).min(sc.max - 1) {
            let mut validator = fresh.clone();
            for (other, y) in forecasts.iter().enumerate().take(hi + 1) {
                if other != member {
                    validator.note_decided(other as u64, y);
                }
            }
            if validator.decided_len() >= cfg.outlier_min_decided {
                worst = worst.max(validator.robust_z(validator.deviation_stat(x)));
            }
        }
    }
    Ok(worst)
}

/// `perf --vet-seeds FROM COUNT`: print every fleet scenario's gate
/// margin for base seeds `FROM..FROM+COUNT`.
pub fn vet(from: u64, count: u64) {
    // The TCP workload runs the disk workload's scenario.
    for w in WORKLOADS.iter().filter(|w| w.kind == Kind::Disk) {
        let mut good = Vec::new();
        for seed in from..from + count {
            match gate_margin(&w.full, seed) {
                Ok(z) => {
                    println!("{} base-seed {seed}: max robust z {z:.2}", w.name);
                    if z < MARGIN_Z {
                        good.push(seed);
                    }
                }
                Err(why) => println!("{} base-seed {seed}: {why}", w.name),
            }
        }
        println!("{}: below {MARGIN_Z}: {good:?}", w.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manytask_seeds_clear_the_outlier_gate_with_margin() {
        let w = WORKLOADS.iter().find(|w| w.name == "manytask_disk").unwrap();
        for seed in MANYTASK_SEEDS {
            let z = gate_margin(&w.full, seed).unwrap();
            assert!(z < MARGIN_Z, "base seed {seed} scores z = {z}");
        }
    }

    #[test]
    fn scenario_seed_is_a_function_of_the_seed() {
        for w in &WORKLOADS {
            assert_eq!(scenario_seed(w, 21), scenario_seed(w, 21));
            assert_eq!(
                scenario_seed(w, 5),
                scenario_seed(w, 5 + 16 * (w.kind != Kind::Inproc) as u64)
            );
        }
        let lists = [COMPUTE_SEEDS, MANYTASK_SEEDS];
        for list in lists {
            let mut sorted = list.to_vec();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "vetted seeds are distinct");
        }
    }
}
