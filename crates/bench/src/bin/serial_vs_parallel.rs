//! Figures 3 vs 4 reproduction (F34): the serial ESSE implementation
//! against the decoupled MTC pool, in two regimes:
//!
//! 1. **real threads** — one engine runs the actual stochastic model on
//!    this machine, on the serial schedule ([`MtcConfig::serial`]: one
//!    worker, an SVD that blocks between stages) and on pools of 1/2/4/8
//!    workers; the pool's makespan shrinks with workers while the serial
//!    schedule cannot exploit any parallelism. Every arm decides the same
//!    64 members, so each must write the serial arm's posterior bytes:
//!    the bin exits nonzero otherwise;
//! 2. **cluster scale (simulated)** — the Fig. 3 structure (perturb →
//!    forecast → diff → SVD strictly in sequence per round) vs the
//!    Fig. 4 structure (pool + continuous diff/SVD) on the 210-core
//!    cluster model, showing the pipeline-drain effect.
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
    let mut trace_out: Option<PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--trace-out" => {
                trace_out = Some(PathBuf::from(argv.next().expect("--trace-out needs a path")))
            }
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }

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

    // --- Cluster-scale structural comparison (simulated). ---
    println!("\n== Fig. 3 vs Fig. 4 at cluster scale (simulated, 210 cores) ==");
    let member_s = 1537.0_f64; // pert + pemodel on the reference node
    let svd_s = 180.0_f64; // one SVD + convergence round
    let cores = 210.0_f64;
    for n in [210, 420, 600, 840] {
        // Fig. 3: rounds of (all members) then (diff+SVD) with barriers;
        // rounds double N: N/2 then N (two rounds typical).
        let waves = |jobs: f64| (jobs / cores).ceil();
        let serial_struct =
            waves(n as f64 / 2.0) * member_s + svd_s + waves(n as f64 / 2.0) * member_s + svd_s;
        // Fig. 4: the pool never drains; diff/SVD overlap the forecasts,
        // only the final SVD is exposed.
        let parallel_struct = waves(n as f64) * member_s + svd_s;
        println!(
            "  N = {n:4}: Fig.3 barrier structure {:6.1} min, Fig.4 pool {:6.1} min ({:.0}% saved)",
            serial_struct / 60.0,
            parallel_struct / 60.0,
            100.0 * (1.0 - parallel_struct / serial_struct)
        );
    }
    println!(
        "\nthe pool also hides the diff stage entirely: it runs continuously as members\n\
         arrive instead of serializing after the forecast loop (paper Sec 4.1, bottleneck 1-3)."
    );

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
