//! The AOSN-II-style twin experiment (paper §6 and Figs. 5-6).
//!
//! A hidden "truth" ocean evolves with its own stochastic forcing; an
//! observation network (SST swath + CTD casts + a glider transect)
//! samples it with noise; ESSE forecasts the uncertainty, assimilates
//! the data, and issues a posterior. The experiment reports:
//!
//! * forecast vs analysis RMSE against the truth (the assimilation win),
//! * SST and 30-m-temperature uncertainty maps (Figs. 5-6 analogues),
//! * adaptive-sampling suggestions (where to send the gliders next),
//! * the real-time timeline bookkeeping of paper Fig. 1.
//!
//! ```text
//! cargo run --release --example monterey_forecast
//! ```

use esse::core::adaptive::EnsembleSchedule;
use esse::core::adaptive_sampling;
use esse::core::model::{ForecastModel, PeForecastModel};
use esse::core::obs::ObsNetwork;
use esse::core::realtime::{ForecastProcedure, ObservationCalendar};
use esse::linalg::vecops;
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse::ocean::{render, scenario, Field2, OceanState};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (pe, state0) = scenario::monterey(20, 20, 5);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = state0.pack();
    let n = mean0.len();
    println!("Monterey twin experiment: state dimension {n}");

    // --- Truth run: the "real ocean" nobody gets to see directly. ---
    let forecast_span = 12.0 * 3600.0;
    let truth = model.forecast(&mean0, 0.0, forecast_span, Some(0xBEEF)).expect("truth integrates");

    // --- Real-time timelines (Fig. 1). ---
    let calendar = ObservationCalendar::regular(0.0, forecast_span, 4);
    let nowcast = calendar.nowcast_at(forecast_span + 1.0).expect("first batch closed");
    println!(
        "observation batch T{} closes at {:.1} h; forecasting from it",
        nowcast.index,
        nowcast.end / 3600.0
    );

    // --- Synthetic observation network samples the truth. ---
    let mut obs = ObsNetwork::merge(vec![
        ObsNetwork::sst_swath(&grid, 3, 0.04),
        ObsNetwork::ctd_cast(&grid, 5, 10, 0.01),
        ObsNetwork::ctd_cast(&grid, 10, 6, 0.01),
        ObsNetwork::glider_transect(&grid, (2, 14), (14, 14), 1, 0.02),
    ]);
    obs.synthesize(&truth, &mut StdRng::seed_from_u64(7));
    println!("observations: {} (SST swath + 2 CTD casts + glider transect)", obs.len());

    // --- ESSE uncertainty forecast through the MTC engine, then the
    //     analysis of the observations. ---
    let prior = esse::core::priors::smooth_temperature_prior(&grid, 20, 0.5, 2.5, 7);
    let cfg = MtcConfig {
        workers: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4),
        schedule: EnsembleSchedule::new(12, 48),
        tolerance: 0.08,
        duration: forecast_span,
        svd_stride: 12,
        max_rank: 32,
        ..Default::default()
    };
    let engine = MtcEsse::new(&model, cfg);
    let (fc, analysis) = engine.cycle(RunInit::new(&mean0, &prior), &obs).expect("cycle");
    println!(
        "ensemble: {} members, converged={}, subspace rank {}",
        fc.members_used,
        fc.converged,
        fc.subspace.rank()
    );

    // The forecaster-time budget of this procedure (Fig. 1 middle row).
    let proc = ForecastProcedure {
        index: nowcast.index,
        start: 0.0,
        processing: 600.0,
        simulation_costs: vec![fc.makespan.as_secs_f64(); 1],
        distribution: 300.0,
    };
    println!(
        "forecaster timeline: parallel procedure takes {:.1} min (serial equivalent of the \
         ensemble would be ~{:.1} min)",
        proc.total_parallel() / 60.0,
        (600.0 + fc.makespan.as_secs_f64() * engine.config.workers as f64 + 300.0) / 60.0
    );

    // --- The analysis against the truth. ---
    let rmse_forecast = vecops::rmse(&fc.central, &truth);
    let rmse_analysis = vecops::rmse(&analysis.state, &truth);
    println!(
        "obs-space misfit: {:.4} -> {:.4}; full-state RMSE vs truth: {:.5} -> {:.5}",
        analysis.prior_misfit, analysis.posterior_misfit, rmse_forecast, rmse_analysis
    );

    // --- Uncertainty maps (Figs. 5-6 analogues). ---
    let std_field = fc.subspace.std_field();
    let t_off = OceanState::t_offset(&grid);
    let sst_std = Field2::from_fn(grid.nx, grid.ny, |i, j| std_field[t_off + j * grid.nx + i]);
    println!();
    println!("{}", render::ascii_map(&grid, &sst_std, "Fig.5 analogue: SST uncertainty (degC)"));
    // 30 m temperature: nearest sigma level per column.
    let t30_std = Field2::from_fn(grid.nx, grid.ny, |i, j| match grid.level_at_depth(i, j, 30.0) {
        Some(k) => std_field[t_off + (k * grid.ny + j) * grid.nx + i],
        None => 0.0,
    });
    println!(
        "{}",
        render::ascii_map(&grid, &t30_std, "Fig.6 analogue: 30 m temperature uncertainty (degC)")
    );

    // --- Adaptive sampling: where should the gliders go next? ---
    let sst_var: Vec<f64> = sst_std.as_slice().iter().map(|s| s * s).collect();
    let picks = adaptive_sampling::select_sites(&grid, &sst_var, 3, 3.0);
    println!("suggested adaptive-sampling sites (cell, predicted variance):");
    for p in &picks {
        println!("  ({:2}, {:2})  var {:.5}", p.cell.0, p.cell.1, p.score);
        let track = adaptive_sampling::suggest_track(&grid, p, 3);
        println!("    glider track: {track:?}");
    }
}
