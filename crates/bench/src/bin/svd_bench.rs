//! Micro-benchmark of the continuous subspace lane: full SVD recompute
//! per convergence round versus the incremental rank-updating tracker,
//! over the same seeded stream of forecast deviations.
//!
//! The workload mirrors the coordinator's SVD stage: `--members`
//! synthetic forecasts (a low-rank spread plus white noise) arrive one
//! by one, and every `--stride` arrivals the estimator is asked for a
//! fresh subspace. The `full` lane is the exact reference: it extends
//! its carried Gram matrix by the new columns, re-solves the whole
//! `N×N` eigenproblem and forms the retained modes each round; the
//! `inc` lane folds only the new columns into the tracked `U·Σ`
//! factorization, refreshing on the configured cadence or an
//! orthonormality-defect breach.
//!
//! ```text
//! svd_bench [--members N] [--state D] [--stride S] [--max-rank R]
//!           [--refresh-every K] [--defect-tol T]
//!           [--assert-speedup X] [--trace-out PATH]
//! ```
//!
//! At the default scope (none of the first six flags given) the bench
//! asserts the lanes' exact schedule: 512 members, 64 rounds in each
//! lane, 60 incremental updates and 4 refreshes. The counts are
//! machine-independent because the threaded kernels are bitwise
//! identical to their serial references; the timings are not, and are
//! only printed (and gated by `--assert-speedup`).

use esse::cli;
use esse_core::subspace::{make_estimator, SubspaceStrategy, SubspaceUpdate, UpdateKind};
use esse_linalg::LinalgCtx;
use esse_obs::event::Lane;
use esse_obs::export::save;
use esse_obs::recorder::RecorderExt;
use esse_obs::ring::RingRecorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Instant;

/// Seeded synthetic forecast ensemble: a `modes`-rank spread with
/// geometrically decaying amplitudes plus white noise, so the dominant
/// subspace is well defined and the tail is genuinely discardable.
fn synthetic_members(state: usize, members: usize, modes: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let basis: Vec<Vec<f64>> =
        (0..modes).map(|_| (0..state).map(|_| rng.gen::<f64>() - 0.5).collect()).collect();
    (0..members)
        .map(|_| {
            let mut x = vec![0.0; state];
            for (r, b) in basis.iter().enumerate() {
                let amp = (rng.gen::<f64>() - 0.5) * 2.0 / (1.0 + r as f64);
                for (xi, bi) in x.iter_mut().zip(b) {
                    *xi += amp * bi;
                }
            }
            for xi in x.iter_mut() {
                *xi += (rng.gen::<f64>() - 0.5) * 0.01;
            }
            x
        })
        .collect()
}

struct LaneRun {
    /// Wall-clock nanoseconds spent inside `estimate()` calls.
    total_ns: u64,
    rounds: u64,
    updates: u64,
    refreshes: u64,
    last: Option<SubspaceUpdate>,
}

/// Drive one estimator over the member stream exactly the way the
/// coordinator does: add each arrival, estimate every `stride`-th.
#[allow(clippy::too_many_arguments)]
fn drive(
    strategy: SubspaceStrategy,
    central: &[f64],
    members: &[Vec<f64>],
    stride: usize,
    max_rank: usize,
    ctx: LinalgCtx,
    rec: &RingRecorder,
    span_name: &'static str,
) -> LaneRun {
    let mut est = make_estimator(&strategy, central.to_vec(), 1e-6, max_rank, ctx);
    let mut run = LaneRun { total_ns: 0, rounds: 0, updates: 0, refreshes: 0, last: None };
    for (j, m) in members.iter().enumerate() {
        est.add_member(j, m);
        if (j + 1) % stride == 0 || j + 1 == members.len() {
            let t0 = Instant::now();
            let update = {
                let _g = rec.span(Lane::Driver, "bench", span_name, Vec::new());
                est.estimate().expect("subspace estimate")
            };
            run.total_ns += t0.elapsed().as_nanos() as u64;
            if let Some(u) = update {
                run.rounds += 1;
                match u.kind {
                    UpdateKind::Incremental => run.updates += 1,
                    UpdateKind::Full | UpdateKind::Refresh => run.refreshes += 1,
                }
                run.last = Some(u);
            }
        }
    }
    run
}

const USAGE: &str = "svd_bench [--members N] [--state D] [--stride S] [--max-rank R] \
                     [--refresh-every K] [--defect-tol T] [--assert-speedup X] [--trace-out PATH]";

/// The flags that change the workload, and so its schedule.
const SCOPE: [&str; 6] = ["members", "state", "stride", "max-rank", "refresh-every", "defect-tol"];

fn main() {
    let args = cli::args(USAGE);
    let members: usize = cli::get(&args, "members").unwrap_or(512);
    let state: usize = cli::get(&args, "state").unwrap_or(1536);
    let stride: usize = cli::get(&args, "stride").unwrap_or(8).max(1);
    let max_rank: usize = cli::get(&args, "max-rank").unwrap_or(32).max(1);
    let refresh_every: usize = cli::get(&args, "refresh-every").unwrap_or(16);
    let defect_tol: f64 = cli::get(&args, "defect-tol").unwrap_or(1e-6);
    let assert_speedup: Option<f64> = cli::get(&args, "assert-speedup");
    let trace_out = args.get("trace-out").map(PathBuf::from);

    let central = vec![0.0; state];
    let stream = synthetic_members(state, members, 24, 0x5EED);
    let ctx = LinalgCtx::default();
    let rec = RingRecorder::new();

    let full = drive(
        SubspaceStrategy::FullRecompute,
        &central,
        &stream,
        stride,
        max_rank,
        ctx,
        &rec,
        "full_estimate",
    );
    let inc = drive(
        SubspaceStrategy::Incremental { refresh_every, defect_tol },
        &central,
        &stream,
        stride,
        max_rank,
        ctx,
        &rec,
        "inc_estimate",
    );

    let full_ms = full.total_ns as f64 / 1e6;
    let inc_ms = inc.total_ns as f64 / 1e6;
    let speedup = full.total_ns as f64 / inc.total_ns.max(1) as f64;
    println!(
        "svd_bench: {members} members x {state} state, stride {stride}, \
         max_rank {max_rank}, {} threads",
        ctx.threads
    );
    println!("full: {:>4} rounds, {full_ms:>9.1} ms total", full.rounds);
    println!(
        "inc : {:>4} rounds ({} updates, {} refreshes), {inc_ms:>9.1} ms total",
        inc.rounds, inc.updates, inc.refreshes
    );
    println!("subspace-lane speedup: {speedup:.1}x");

    // Accuracy: the incremental lane's leading variances must agree
    // with the full recompute within the tracked truncation bound.
    let full_last = full.last.expect("full lane produced an estimate");
    let inc_last = inc.last.expect("incremental lane produced an estimate");
    let bound = inc_last.error_bound;
    let fv = &full_last.subspace.variances;
    let iv = &inc_last.subspace.variances;
    let tol = fv[0] * (bound + 1e-6);
    let lead = fv.len().min(iv.len()).min(8);
    for i in 0..lead {
        assert!(
            (fv[i] - iv[i]).abs() <= tol,
            "variance {i} diverged beyond the tracked bound: \
             full {} vs inc {} (tol {tol:.3e}, bound {bound:.3e})",
            fv[i],
            iv[i]
        );
    }
    println!(
        "accuracy: leading {lead} variances within tracked bound \
         (defect {:.2e}, error bound {bound:.2e})",
        inc_last.defect
    );

    if !SCOPE.iter().any(|k| args.contains_key(*k)) {
        let schedule = (members, full.rounds, inc.rounds, inc.updates, inc.refreshes);
        assert_eq!(
            schedule,
            (512, 64, 64, 60, 4),
            "(members, full rounds, inc rounds, updates, refreshes)"
        );
        println!("schedule assertion passed (the default scope's exact counts)");
    }

    if let Some(min) = assert_speedup {
        assert!(
            speedup >= min,
            "subspace-lane speedup {speedup:.1}x (full {full_ms:.1} ms / inc {inc_ms:.1} ms) \
             below the required {min:.1}x"
        );
        println!("speedup assertion passed (>= {min:.1}x)");
    }

    if let Some(path) = &trace_out {
        save(&rec.drain(), path).expect("write trace");
        println!("trace -> {}", path.display());
    }
}
