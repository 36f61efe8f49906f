//! Figures 3 vs 4 reproduction (F34) on real threads: one engine runs
//! the actual stochastic model on this machine, on the serial schedule
//! ([`MtcConfig::serial`]: one worker, an SVD that blocks between
//! stages) and on pools of 1/2/4/8 workers; the pool's makespan shrinks
//! with workers while the serial schedule cannot exploit any
//! parallelism. Every arm decides the same 64 members, so each must
//! write the serial arm's posterior bytes: the bin exits nonzero
//! otherwise. The cluster-scale half of F34 is `paper_tables F34`.
//!
//! ```text
//! cargo run --release -p esse-bench --bin serial_vs_parallel
//! cargo run --release -p esse-bench --bin serial_vs_parallel -- --trace-out run.json
//! cargo run --release -p esse-bench --bin serial_vs_parallel -- --trace-out run.jsonl
//! ```
//!
//! With `--trace-out <path>` a converging MTC run is recorded through
//! `esse-obs` and exported — Chrome trace-event
//! JSON for `.json`/`.trace` paths (open in `chrome://tracing` or
//! Perfetto), JSONL otherwise. A `.jsonl` trace feeds straight into the
//! `trace_report` binary, which recovers the per-phase breakdown and the
//! critical path from the events alone.

use esse_core::adaptive::EnsembleSchedule;
use esse_core::format::subspace_to_bytes;
use esse_core::model::{ForecastModel, LinearGaussianModel};
use esse_core::subspace::ErrorSubspace;
use esse_mtc::metrics::summarize;
use esse_mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse_obs::RingRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "serial_vs_parallel [--trace-out PATH]";

/// A model that burns a calibrated amount of CPU per forecast so that
/// thread-level speedups are measurable.
struct CostlyModel {
    inner: LinearGaussianModel,
    spin_iters: u64,
}

impl ForecastModel for CostlyModel {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }
    fn forecast(
        &self,
        x0: &[f64],
        t: f64,
        d: f64,
        seed: Option<u64>,
    ) -> Result<Vec<f64>, esse_core::model::ForecastError> {
        // Spin: stand-in for the PE model's compute.
        let mut acc = 0.0_f64;
        for i in 0..self.spin_iters {
            acc += (i as f64).sqrt().sin();
        }
        std::hint::black_box(acc);
        self.inner.forecast(x0, t, d, seed)
    }
}

fn main() -> ExitCode {
    let trace_out = esse::cli::args(USAGE).get("trace-out").map(PathBuf::from);

    let rates = [0.98, 0.95, 0.3, 0.2, 0.15, 0.1];
    let model = CostlyModel {
        inner: LinearGaussianModel::diagonal(&rates, 0.05, 1.0),
        spin_iters: 3_000_000,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let prior = ErrorSubspace::isotropic(&mut rng, 6, 6, 1.0);
    let mean = vec![0.0; 6];
    let n_target = 64;

    println!("== Fig. 3 vs Fig. 4: real-thread comparison (N = {n_target} members) ==");
    let fixed = MtcConfig {
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(n_target, n_target),
        tolerance: 1e-12, // run the full ensemble
        duration: 10.0,
        max_rank: 6,
        svd_stride: 16,
        ..Default::default()
    };
    // Serial (Fig. 3).
    let serial = MtcEsse::new(&model, fixed.clone().serial());
    let serial = serial.run(RunInit::new(&mean, &prior)).expect("serial");
    let (serial_time, posterior) = (serial.makespan, subspace_to_bytes(&serial.subspace));
    println!("serial loop: {} members in {serial_time:.2?}", serial.members_used);

    // MTC pool (Fig. 4) with growing worker counts.
    let mut mismatched = Vec::new();
    for workers in [1, 2, 4, 8] {
        let cfg = MtcConfig { workers, ..fixed.clone() };
        let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean, &prior)).expect("mtc");
        let m = summarize(&out.records, workers);
        println!(
            "MTC pool, {workers} workers: {} members in {:.2?} (speedup {:.2}x, pool utilization {:.0}%)",
            out.members_used,
            out.makespan,
            serial_time.as_secs_f64() / out.makespan.as_secs_f64(),
            100.0 * m.utilization
        );
        if subspace_to_bytes(&out.subspace) != posterior {
            mismatched.push(workers);
        }
    }

    if let Some(path) = &trace_out {
        // One more MTC run with a realistic tolerance so the trace shows
        // the convergence machinery firing (the benchmark runs above use
        // tolerance 1e-12 to force the full ensemble).
        let cfg = MtcConfig {
            workers: 4,
            schedule: EnsembleSchedule::new(16, 256),
            tolerance: 0.05,
            duration: 10.0,
            max_rank: 6,
            svd_stride: 8,
            ..Default::default()
        };
        let ring = RingRecorder::new();
        let engine = MtcEsse::new(&model, cfg).with_recorder(&ring);
        let out = engine.run(RunInit::new(&mean, &prior)).expect("traced mtc");
        println!(
            "\ntraced MTC run converged = {} with {} members",
            out.converged, out.members_used
        );
        let trace = ring.drain();
        esse_obs::export::save(&trace, path).expect("write trace");
        println!(
            "trace: {} events ({} dropped) -> {}",
            trace.events.len(),
            trace.dropped,
            path.display()
        );
    }
    if !mismatched.is_empty() {
        eprintln!("posterior bytes differ from the serial arm's with {mismatched:?} workers");
        return ExitCode::FAILURE;
    }
    println!("posterior bytes: every pool arm matches the serial arm");
    ExitCode::SUCCESS
}
