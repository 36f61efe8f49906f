//! Fault-tolerance sweep: failure rate × retry policy on the live MTC
//! engine, plus the recovery cost of node failures on the simulated
//! 210-core cluster.
//!
//! Paper §4 point 3: "one could see resources disappear" on shared
//! clusters, and member losses are tolerable *unless they become
//! systematic*. This harness quantifies what the recovery machinery
//! buys: at each injected failure rate it runs the ensemble once with
//! retries disabled (losses surface as an explicit `Degraded` health
//! verdict with a coverage hole) and once with retries enabled
//! (backoff re-enqueues recover every member), reporting makespan,
//! wasted work and coverage for both arms.
//!
//! ```text
//! cargo run --release -p esse-bench --bin fault_sweep
//! cargo run --release -p esse-bench --bin fault_sweep -- --trace-out fault.json
//! cargo run --release -p esse-bench --bin fault_sweep -- --metrics-out fault.prom
//! cargo run --release -p esse-bench --bin fault_sweep -- --assert-retries
//! ```
//!
//! With `--trace-out <path>` the 10%-failure pair is traced through
//! `esse-obs`: the retry-enabled run goes to `<path>` (look for
//! `retry_scheduled` instants and duplicate member spans) and the
//! retry-disabled run to `<path>` with `-noretry` appended to the stem
//! (look for `member_failed_permanent` and the `degraded` instant).
//! `--assert-retries` exits nonzero unless the sweep actually exercised
//! the retry path — the CI smoke check. `--metrics-out <path>` attaches
//! a [`esse_obs::MetricsRegistry`] to the traced retry run and dumps
//! the final snapshot in Prometheus text exposition format (plus the
//! cluster-sim `sim_*` series from the 10% SGE arm).

use esse_core::adaptive::EnsembleSchedule;
use esse_core::model::LinearGaussianModel;
use esse_core::subspace::ErrorSubspace;
use esse_mtc::fault::{FaultPlan, RetryPolicy, RunHealth};
use esse_mtc::sim::cluster::{
    run_batch, ClusterConfig, InputStaging, JobSpec, NfsConfig, NodeFaultModel,
};
use esse_mtc::sim::platform::local_opteron;
use esse_mtc::sim::scheduler::DispatchPolicy;
use esse_mtc::workflow::{MtcConfig, MtcEsse, MtcOutcome, RunInit};
use esse_obs::RingRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const ENSEMBLE: usize = 32;
const FAULT_SEED: u64 = 0xFA11;

fn engine_config(rate: f64, retry: RetryPolicy) -> MtcConfig {
    let faults = FaultPlan::seeded(FAULT_SEED)
        .with_crashes(rate * 0.6)
        .with_transient_io(rate * 0.4)
        .with_stragglers(rate * 0.5, std::time::Duration::from_millis(5));
    MtcConfig {
        workers: 4,
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(ENSEMBLE, ENSEMBLE),
        tolerance: 1e-12, // fixed-size ensemble: coverage is the story
        duration: 10.0,
        max_rank: 6,
        svd_stride: 8,
        retry,
        faults: Some(faults),
        ..MtcConfig::default()
    }
}

fn coverage_of(out: &MtcOutcome) -> f64 {
    match out.health {
        RunHealth::Full => 1.0,
        RunHealth::Degraded { coverage, .. } => coverage,
        // `RunHealth` is non_exhaustive; future variants read as full
        // coverage unless they carry their own figure.
        _ => 1.0,
    }
}

fn main() {
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut assert_retries = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--trace-out" => {
                trace_out = Some(PathBuf::from(argv.next().expect("--trace-out needs a path")))
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(argv.next().expect("--metrics-out needs a path")))
            }
            "--assert-retries" => assert_retries = true,
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }

    let rates = [0.98, 0.95, 0.3, 0.2, 0.15, 0.1];
    let model = LinearGaussianModel::diagonal(&rates, 0.05, 1.0);
    let mut rng = StdRng::seed_from_u64(9);
    let prior = ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0);
    let mean = vec![0.0; 6];

    println!("== live engine: failure rate x retry policy ({ENSEMBLE} members, 4 workers) ==");
    println!(
        "{:>6}  {:<22} {:>9} {:>8} {:>8} {:>9} {:>9}",
        "rate", "policy", "makespan", "retries", "failed", "coverage", "health"
    );
    let mut total_retries = 0usize;
    let mut retry_arm_degraded = 0usize;
    for rate in [0.0, 0.05, 0.10, 0.20] {
        for (name, retry) in [
            ("no-retry", RetryPolicy::disabled()),
            ("retry x3", RetryPolicy::retries(3)),
            ("retry x3 + speculation", RetryPolicy::retries(3).with_speculation(4.0)),
        ] {
            let cfg = engine_config(rate, retry);
            let out =
                MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).expect("sweep run");
            if name != "no-retry" {
                total_retries += out.faults.retries;
                // The acceptance criterion holds up to 10% injected
                // failures; at higher rates a 3-attempt budget may
                // legitimately exhaust.
                if out.health.is_degraded() && rate > 0.0 && rate <= 0.10 {
                    retry_arm_degraded += 1;
                }
            }
            println!(
                "{:>5.0}%  {:<22} {:>8.1?} {:>8} {:>8} {:>8.0}% {:>9}",
                rate * 100.0,
                name,
                out.makespan,
                out.faults.retries,
                out.members_failed,
                coverage_of(&out) * 100.0,
                if out.health.is_degraded() { "DEGRADED" } else { "full" }
            );
        }
    }

    println!("\n== simulated 210-core cluster: node failures, SGE vs Condor recovery ==");
    let job = JobSpec { cpu_s: 1537.0, read_mb: 0.0, small_ops: 0, write_mb: 11.0 };
    println!(
        "{:>6}  {:<14} {:>12} {:>9} {:>12}",
        "rate", "scheduler", "makespan", "failures", "wasted cpu"
    );
    for rate in [0.0, 0.05, 0.10] {
        for (name, dispatch) in
            [("SGE", DispatchPolicy::sge()), ("Condor tuned", DispatchPolicy::condor_tuned())]
        {
            let cfg = ClusterConfig {
                cores: 210,
                platform: local_opteron(),
                dispatch,
                staging: InputStaging::PrestagedLocal,
                nfs: NfsConfig::default(),
                faults: (rate > 0.0).then(|| NodeFaultModel::with_rate(FAULT_SEED, rate)),
            };
            let rep = run_batch(&cfg, job, 600);
            println!(
                "{:>5.0}%  {:<14} {:>10.1} min {:>9} {:>10.1} min",
                rate * 100.0,
                name,
                rep.makespan / 60.0,
                rep.failures,
                rep.wasted_cpu_s / 60.0
            );
        }
    }

    if trace_out.is_some() || metrics_out.is_some() {
        // The acceptance pair at 10% injected failures: with retries the
        // trace shows recovery and full coverage; without, the explicit
        // coverage hole.
        let registry = esse_obs::MetricsRegistry::new();
        let ring = RingRecorder::new();
        let out_retry = MtcEsse::new(&model, engine_config(0.10, RetryPolicy::retries(3)))
            .with_recorder(&ring)
            .with_metrics(&registry)
            .run(RunInit::new(&mean, &prior))
            .expect("traced retry run");
        if let Some(path) = &metrics_out {
            // Fold in the cluster-sim series from the 10% SGE arm so one
            // scrape covers both execution layers.
            let cfg = ClusterConfig {
                cores: 210,
                platform: local_opteron(),
                dispatch: DispatchPolicy::sge(),
                staging: InputStaging::PrestagedLocal,
                nfs: NfsConfig::default(),
                faults: Some(NodeFaultModel::with_rate(FAULT_SEED, 0.10)),
            };
            run_batch(&cfg, job, 600).record_metrics(&registry);
            let snap = registry.snapshot();
            std::fs::write(path, snap.to_prometheus()).expect("write metrics");
            println!(
                "\nmetrics: {} counters, {} gauges, {} histograms -> {}",
                snap.counters.len(),
                snap.gauges.len(),
                snap.histograms.len(),
                path.display()
            );
        }
        if let Some(path) = &trace_out {
            let trace = ring.drain();
            esse_obs::export::save(&trace, path).expect("write retry trace");

            let mut noretry_path = path.clone();
            let stem = noretry_path.file_stem().map(|s| s.to_string_lossy().into_owned());
            let ext = noretry_path.extension().map(|s| s.to_string_lossy().into_owned());
            let name = match (stem, ext) {
                (Some(s), Some(e)) => format!("{s}-noretry.{e}"),
                (Some(s), None) => format!("{s}-noretry"),
                _ => "fault-noretry.json".into(),
            };
            noretry_path.set_file_name(name);
            let ring2 = RingRecorder::new();
            let out_noretry = MtcEsse::new(&model, engine_config(0.10, RetryPolicy::disabled()))
                .with_recorder(&ring2)
                .run(RunInit::new(&mean, &prior))
                .expect("traced no-retry run");
            let trace2 = ring2.drain();
            esse_obs::export::save(&trace2, &noretry_path).expect("write no-retry trace");

            println!(
                "\ntraces: retry run ({} events, {} retries, coverage {:.0}%) -> {}",
                trace.events.len(),
                out_retry.faults.retries,
                coverage_of(&out_retry) * 100.0,
                path.display()
            );
            println!(
                "        no-retry run ({} events, {} lost, coverage {:.0}%) -> {}",
                trace2.events.len(),
                out_noretry.members_failed,
                coverage_of(&out_noretry) * 100.0,
                noretry_path.display()
            );
        }
    }

    if assert_retries {
        if total_retries == 0 {
            eprintln!("FAIL: the sweep never exercised the retry path");
            std::process::exit(1);
        }
        if retry_arm_degraded > 0 {
            eprintln!("FAIL: {retry_arm_degraded} retry-enabled arms still degraded");
            std::process::exit(1);
        }
        println!("\nassert-retries: OK ({total_retries} retries exercised, all retry arms full)");
    }
}
