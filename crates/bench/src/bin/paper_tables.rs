//! `paper_tables` — every table of EXPERIMENTS.md from one command.
//!
//! Each section prints the markdown block EXPERIMENTS.md carries between
//! `<!-- paper_tables ID -->` and `<!-- /paper_tables -->`, and
//! `tests/experiments.rs` fails when the two differ. A block holds only
//! values that are a pure function of code and seed; wall-clock readings
//! follow it as "timing, not checked" lines.
//!
//! | ID | paper artifact |
//! |----|----------------|
//! | T1, T2 | Tables 1-2: pert/pemodel on Teragrid platforms and EC2 instance types |
//! | E1, E2, E3 | §5.2.1: local vs NFS I/O, SGE vs Condor, the 6000-job acoustics sweep |
//! | C1 | §5.4.2: the EC2 cost model |
//! | F2 | Figure 2: error-subspace convergence |
//! | F34 | Figures 3 vs 4 at cluster scale (closed form; the real-thread arms are `serial_vs_parallel`) |
//! | F56 | Figures 5-6: uncertainty maps (also writes the σ fields as CSV under `target/uncertainty_maps/`) |
//! | EXT | mixed local/Grid/EC2 pools, job arrays, gangs and the design ablations |
//!
//! ```text
//! cargo run --release -p esse-bench --bin paper_tables               # every section
//! cargo run --release -p esse-bench --bin paper_tables -- T1 F56     # the named ones
//! cargo run --release -p esse-bench --bin paper_tables -- --trace-out e1.json
//! ```
//!
//! `--trace-out PATH` replays E1's mixed-locality batch through
//! `esse-obs` on the virtual clock (one lane per core slot with
//! read/cpu/write spans) and exports it: Chrome trace-event JSON for
//! `.json`/`.trace` paths, JSONL otherwise.

use esse_acoustics::climate::{run_task, ClimateSweep};
use esse_acoustics::tl::TlSolver;
use esse_core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse_core::convergence::{similarity, subspace_from_spread};
use esse_core::covariance::SpreadAccumulator;
use esse_core::model::{ForecastModel, LinearGaussianModel, PeForecastModel};
use esse_core::perturb::{PerturbConfig, PerturbationGenerator};
use esse_core::subspace::ErrorSubspace;
use esse_linalg::random::randn_matrix;
use esse_linalg::Svd;
use esse_mtc::sim::cloud::{billed_hours, campaign_cost, Ec2Pricing};
use esse_mtc::sim::cluster::{
    run_batch, run_batch_traced, ClusterConfig, InputStaging, JobSpec, NfsConfig,
};
use esse_mtc::sim::ec2::catalog;
use esse_mtc::sim::gang::{gang_overhead, pack_gangs};
use esse_mtc::sim::multicluster::{member_time, plan, plan_balanced, presets, ResourcePool};
use esse_mtc::sim::platform::{
    local_opteron, ornl_p4, pemodel_time, pert_cpu_utilization, pert_time, purdue_core2, Platform,
    WorkloadSpec,
};
use esse_mtc::sim::scheduler::DispatchPolicy;
use esse_mtc::sim::submission::{evaluate, restart_cost, SchedulerCosts, SubmissionStrategy};
use esse_mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse_ocean::dynamics::{baroclinic_pressure, grad_x, RefProfile};
use esse_ocean::{render, scenario, Field2, OceanState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "paper_tables [T1|T2|E1|E2|E3|C1|F2|F34|F56|EXT ...] [--trace-out PATH]";

/// What a section may use and add beside its block.
struct Run {
    /// E1's trace export (`--trace-out`).
    trace_out: Option<PathBuf>,
    /// Lines printed after the block: wall-clock readings and files written.
    notes: Vec<String>,
}

/// A section: its markdown block, computed.
type Section = fn(&mut Run) -> String;

const SECTIONS: [(&str, Section); 10] = [
    ("T1", t1),
    ("T2", t2),
    ("E1", e1),
    ("E2", e2),
    ("E3", e3),
    ("C1", c1),
    ("F2", f2),
    ("F34", f34),
    ("F56", f56),
    ("EXT", ext),
];

/// A markdown table.
fn table<const N: usize>(head: [&str; N], rows: impl IntoIterator<Item = [String; N]>) -> String {
    let mut out = format!("| {} |\n|{}\n", head.join(" | "), "---|".repeat(N));
    for row in rows {
        out += &format!("| {} |\n", row.join(" | "));
    }
    out
}

/// `x` relative to `base`, as a signed percentage.
fn pct(base: f64, x: f64) -> String {
    format!("{:+.1}%", 100.0 * (x / base - 1.0))
}

/// The 210-core home cluster of §5.2.1 with prestaged inputs.
fn home_cluster(dispatch: DispatchPolicy) -> ClusterConfig {
    ClusterConfig {
        cores: 210,
        platform: local_opteron(),
        dispatch,
        staging: InputStaging::PrestagedLocal,
        nfs: NfsConfig::default(),
        faults: None,
    }
}

/// One ESSE member (pert + pemodel) as a batch job.
fn member_job(w: &WorkloadSpec) -> JobSpec {
    JobSpec {
        cpu_s: w.pert_cpu_s + w.pemodel_cpu_s,
        read_mb: w.pert_read_mb + w.pemodel_read_mb,
        small_ops: w.pert_small_ops,
        write_mb: w.pemodel_write_mb,
    }
}

/// A Table 1/2 row: the paper's pert and pemodel seconds next to ours.
fn timing_row(label: String, p: &Platform, (pert, pe): (f64, f64)) -> [String; 5] {
    let w = WorkloadSpec::default();
    let (pert_ours, pe_ours) = (pert_time(&w, p), pemodel_time(&w, p));
    [
        label,
        format!("{pert:.2} s"),
        format!("{pert_ours:.2} s ({})", pct(pert, pert_ours)),
        format!("{pe:.2} s"),
        format!("{pe_ours:.2} s ({})", pct(pe, pe_ours)),
    ]
}

const TIMING_HEAD: [&str; 5] =
    ["platform", "pert paper", "pert ours", "pemodel paper", "pemodel ours"];

fn t1(_: &mut Run) -> String {
    // Table 1 of the paper: (pert s, pemodel s).
    let paper = [
        (ornl_p4(), (67.83, 1823.99)),
        (purdue_core2(), (6.25, 1107.40)),
        (local_opteron(), (6.21, 1531.33)),
    ];
    let rows = paper.iter().map(|(p, secs)| timing_row(p.name.to_string(), p, *secs));
    let (w, ornl) = (WorkloadSpec::default(), ornl_p4());
    let metadata = w.pert_small_ops as f64 * ornl.fs.small_file_latency_s;
    format!(
        "{}\nORNL pert: {:.0}% of its {:.2} s is PVFS2 small-file metadata latency \
         ({} operations × {:.3} s). CPU speed relative to the Opteron: Pentium4 {:.3}, \
         Core2 {:.3}.\n",
        table(TIMING_HEAD, rows),
        100.0 * metadata / pert_time(&w, &ornl),
        pert_time(&w, &ornl),
        w.pert_small_ops,
        ornl.fs.small_file_latency_s,
        ornl.cpu.speed,
        purdue_core2().cpu.speed,
    )
}

fn t2(_: &mut Run) -> String {
    // Table 2 of the paper, in catalog order: (pert s, pemodel s).
    let paper =
        [(13.53, 2850.14), (9.33, 1817.13), (9.14, 1860.81), (9.80, 1008.11), (6.67, 1030.42)];
    let rows = catalog().into_iter().zip(paper).map(|(inst, secs)| {
        let label = format!("{} ({} cores)", inst.platform.name, inst.cores);
        timing_row(label, &inst.platform, secs)
    });
    table(TIMING_HEAD, rows)
}

fn e1(run: &mut Run) -> String {
    let w = WorkloadSpec::default();
    let (job, local_cfg) = (member_job(&w), home_cluster(DispatchPolicy::sge()));
    let local = run_batch(&local_cfg, job, 600);
    let nfs_cfg = ClusterConfig { staging: InputStaging::NfsShared, ..local_cfg.clone() };
    // The simulation is deterministic: the traced variant reports
    // run_batch's makespans while it replays the schedule.
    let ring = esse_obs::RingRecorder::new();
    let mixed = match &run.trace_out {
        Some(_) => run_batch_traced(&nfs_cfg, job, 600, &ring),
        None => run_batch(&nfs_cfg, job, 600),
    };
    if let Some(path) = &run.trace_out {
        let trace = ring.drain();
        // Cross-check against the report: cpu-span utilization from the
        // per-slot timelines on the virtual clock.
        let cpu_util = esse_obs::timeline::mean_utilization(&trace, Some("task"));
        esse_obs::export::save(&trace, path).expect("write the E1 trace");
        run.notes.push(format!(
            "trace: {} events across {} lanes (cpu-span utilization {:.1}%) -> {}",
            trace.events.len(),
            trace.lanes().len(),
            100.0 * cpu_util,
            path.display()
        ));
    }
    let p = local_opteron();
    let share = local_cfg.nfs.capacity_mb_s / local_cfg.cores as f64;
    let util = |read_mb_s| format!("{:.1}%", 100.0 * pert_cpu_utilization(&w, &p, read_mb_s));
    let min = |s: f64| format!("{:.1} min", s / 60.0);
    let rows = [
        ["600 members, all-local I/O".into(), "≈77 min".into(), min(local.makespan)],
        ["600 members, mixed locality".into(), "≈86 min".into(), min(mixed.makespan)],
        ["pert CPU utilization over NFS".into(), "≈20%".into(), util(share)],
        ["pert CPU utilization prestaged".into(), "≈100%".into(), util(p.fs.seq_bandwidth_mb_s)],
        [
            "whole-job mean CPU utilization, local / mixed".into(),
            "—".into(),
            format!(
                "{:.1}% / {:.1}%",
                100.0 * local.mean_cpu_utilization,
                100.0 * mixed.mean_cpu_utilization
            ),
        ],
    ];
    format!(
        "{}\n{} concurrent readers share the {:.0} MB/s NFS server at {share:.2} MB/s each.\n",
        table(["case", "paper", "ours"], rows),
        local_cfg.cores,
        local_cfg.nfs.capacity_mb_s,
    )
}

fn e2(_: &mut Run) -> String {
    let makespan = |dispatch, job, count| run_batch(&home_cluster(dispatch), job, count).makespan;
    let job = member_job(&WorkloadSpec::default());
    let sge = makespan(DispatchPolicy::sge(), job, 600);
    let condor = makespan(DispatchPolicy::condor(), job, 600);
    let tuned = makespan(DispatchPolicy::condor_tuned(), job, 600);
    let vs_sge = |m: f64| format!("{:.1} min ({} vs SGE)", m / 60.0, pct(sge, m));
    let main = table(
        ["case (600 members, 210 cores)", "paper", "ours"],
        [
            ["SGE, immediate reassignment".into(), "—".into(), format!("{:.1} min", sge / 60.0)],
            ["Condor, 300 s negotiation cycles".into(), "10-20% slower".into(), vs_sge(condor)],
            ["Condor tuned, 60 s cycles".into(), "\"diminished\"".into(), vs_sge(tuned)],
        ],
    );
    let sweep = [
        ("3 min × 6000", 180.0, 6000),
        ("8.5 min × 1200", 510.0, 1200),
        ("25.6 min × 600", 1536.9, 600),
    ]
    .map(|(label, cpu_s, count)| {
        let spec = JobSpec { cpu_s, read_mb: 10.0, small_ops: 20, write_mb: 2.0 };
        let s = makespan(DispatchPolicy::sge(), spec, count);
        let c = makespan(DispatchPolicy::condor(), spec, count);
        [label.into(), format!("{:.1} min", s / 60.0), format!("{:.1} min", c / 60.0), pct(s, c)]
    });
    let sweep = table(["jobs", "SGE", "Condor (300 s cycles)", "Condor penalty"], sweep);
    format!("{main}\nSensitivity to job granularity:\n\n{sweep}")
}

fn e3(run: &mut Run) -> String {
    let count = 6200;
    let job = JobSpec { cpu_s: 180.0, read_mb: 5.0, small_ops: 20, write_mb: 2.0 };
    let rep = run_batch(&home_cluster(DispatchPolicy::sge()), job, count);
    let starts = rep.jobs.iter().map(|j| j.start);
    let (first, last) = starts.fold((f64::INFINITY, 0.0_f64), |(lo, hi), s| (lo.min(s), hi.max(s)));
    // A real slice of the sweep through the actual TL solver: the task
    // body the cluster sweep schedules.
    let (model, st) = scenario::monterey(20, 20, 5);
    let sweep = ClimateSweep::zonal_fan(&model.grid, 6, vec![20.0, 50.0], vec![0.4, 0.8, 1.6]);
    let solver = TlSolver { n_rays: 121, nr: 60, nz: 30, ..Default::default() };
    let tasks = sweep.tasks();
    let t0 = Instant::now();
    let ok = tasks.iter().filter(|t| run_task(&model.grid, &st, t, &solver).is_some()).count();
    let ms = t0.elapsed().as_secs_f64() * 1000.0 / tasks.len() as f64;
    run.notes.push(format!("timing, not checked: {ms:.1} ms per TL task"));
    let rows = [
        [
            format!("{count} × ~3-min jobs on 210 cores, SGE"),
            "handled \"without any problem\"".into(),
            format!(
                "{:.1} min makespan vs {:.1} min ideal",
                rep.makespan / 60.0,
                (count as f64 / 210.0).ceil() * 3.0
            ),
        ],
        [
            "mean job wall time / mean CPU utilization".into(),
            "—".into(),
            format!(
                "{:.1} s / {:.1}%",
                rep.jobs.iter().map(|j| j.total()).sum::<f64>() / count as f64,
                100.0 * rep.mean_cpu_utilization
            ),
        ],
        [
            "mean inter-dispatch gap".into(),
            "—".into(),
            format!("{:.3} s", (last - first) / (count - 1) as f64),
        ],
        [
            "real TL tasks through the ray-flux solver (demo resolution)".into(),
            "—".into(),
            format!("{ok}/{} computed", tasks.len()),
        ],
    ];
    table(["case", "paper", "ours"], rows)
}

fn c1(_: &mut Run) -> String {
    let pricing = Ec2Pricing::default();
    // 1.5 GB in, 11 MB back per member, 20 instances × $0.80 for 2 h.
    let cost =
        |members, reserved| campaign_cost(&pricing, 1.5, members, 11.0, 20, 7200.0, 0.80, reserved);
    let (c, r) = (cost(960, false), cost(960, true));
    let rows = [
        ["input transfer 1.5 GB × $0.10".into(), "$0.15".into(), format!("${:.2}", c.transfer_in)],
        ["output 10.56 GB × $0.17".into(), "$1.795".into(), format!("${:.3}", c.transfer_out)],
        ["compute 2 h × 20 × $0.80".into(), "$32.00".into(), format!("${:.2}", c.compute)],
        ["**total**".into(), "**$33.95**".into(), format!("**${:.2}**", c.total())],
        [
            "reserved-instance compute discount".into(),
            ">3×".into(),
            format!("{:.1}× (${:.2} → ${:.2})", c.compute / r.compute, c.compute, r.compute),
        ],
    ];
    let billing =
        [3599.0, 3600.0, 3601.0, 7199.0, 7201.0].map(|s| format!("{s} s → {} h", billed_hours(s)));
    let scaling =
        [240, 480, 960, 1920, 3840].map(|m| format!("{m} → ${:.2}", cost(m, false).total()));
    format!(
        "{}\nCeil-hour billing: {}.\n\nTotal cost by ensemble size (same window and fleet): {}.\n",
        table(["term", "paper", "ours"], rows),
        billing.join(", "),
        scaling.join(", "),
    )
}

/// ρ between successive subspace estimates as the ensemble grows
/// through `stages`.
fn rho_curve<M: ForecastModel>(
    model: &M,
    mean0: &[f64],
    prior: &ErrorSubspace,
    duration: f64,
    stages: &[usize],
    max_rank: usize,
) -> Vec<(usize, f64)> {
    let gen = PerturbationGenerator::new(prior, PerturbConfig::default());
    let central = model.forecast(mean0, 0.0, duration, None).expect("central forecast");
    let mut acc = SpreadAccumulator::new(central);
    let mut previous: Option<ErrorSubspace> = None;
    let mut curve = Vec::new();
    let mut j = 0usize;
    for &target in stages {
        while acc.count() < target {
            let x0 = gen.perturb(mean0, j);
            if let Ok(xf) = model.forecast(&x0, 0.0, duration, Some(gen.forecast_seed(j))) {
                acc.add_member(j, &xf);
            }
            j += 1;
        }
        if let Some(est) = subspace_from_spread(&acc.snapshot().matrix, 1e-4, max_rank) {
            if let Some(prev) = &previous {
                curve.push((target, similarity(prev, &est)));
            }
            previous = Some(est);
        }
    }
    curve
}

fn f2(_: &mut Run) -> String {
    // A linear-Gaussian model with a known 3-mode dominant subspace.
    let lin =
        LinearGaussianModel::diagonal(&[0.99, 0.97, 0.95, 0.3, 0.25, 0.2, 0.15, 0.1], 0.05, 1.0);
    let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(11), 8, 8, 1.0);
    let stages = [8, 16, 32, 64, 128, 256, 512];
    let linear = rho_curve(&lin, &[0.0; 8], &prior, 20.0, &stages, 8);
    // The primitive-equation ocean model: coarse, a 3 h window.
    let (pe, st0) = scenario::monterey(14, 14, 3);
    let mean0 = st0.pack();
    let pe_prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(3), mean0.len(), 12, 0.04);
    let ocean =
        rho_curve(&PeForecastModel::new(pe), &mean0, &pe_prior, 3.0 * 3600.0, &[6, 12, 24, 48], 24);
    let rows = |model: &str, curve: Vec<(usize, f64)>| {
        let model = model.to_string();
        curve.into_iter().map(move |(n, rho)| [model.clone(), n.to_string(), format!("{rho:.4}")])
    };
    let rows =
        rows("linear-Gaussian, true rank 3", linear).chain(rows("PE ocean, 14×14×3, 3 h", ocean));
    // The adaptive loop itself, on the serial (Fig. 3) schedule.
    let cfg = MtcConfig {
        schedule: EnsembleSchedule::new(8, 512),
        tolerance: 0.05,
        duration: 20.0,
        max_rank: 8,
        ..Default::default()
    };
    let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(5), 8, 8, 1.0);
    let fc =
        MtcEsse::new(&lin, cfg.serial()).run(RunInit::new(&[0.0; 8], &prior)).expect("serial run");
    let history: Vec<String> = fc.rho_history.iter().map(|r| format!("{r:.3}")).collect();
    format!(
        "{}\nAdaptive N on the linear-Gaussian model (serial schedule, tolerance 0.05): \
         converged = {} after {} members, ρ history [{}].\n",
        table(["model", "N", "ρ"], rows),
        fc.converged,
        fc.members_used,
        history.join(", "),
    )
}

fn f34(_: &mut Run) -> String {
    let member_s = 1537.0_f64; // pert + pemodel on the reference node
    let svd_s = 180.0_f64; // one SVD + convergence round
    let cores = 210.0_f64;
    let waves = |jobs: f64| (jobs / cores).ceil();
    let rows = [210, 420, 600, 840].map(|n| {
        let n = n as f64;
        // Fig. 3: two rounds of N/2 members, each a barrier before its SVD.
        let barrier = 2.0 * (waves(n / 2.0) * member_s + svd_s);
        // Fig. 4: the pool never drains and diff/SVD overlap the
        // forecasts; only the final SVD is exposed.
        let pool = waves(n) * member_s + svd_s;
        [
            format!("{n}"),
            format!("{:.1} min", barrier / 60.0),
            format!("{:.1} min", pool / 60.0),
            format!("{:.0}%", 100.0 * (1.0 - pool / barrier)),
        ]
    });
    format!(
        "{}\nMember {member_s} s (pert + pemodel on the reference node), one SVD round \
         {svd_s} s, {cores} cores.\n",
        table(["N", "Fig. 3 barrier structure", "Fig. 4 pool", "saved"], rows)
    )
}

fn f56(run: &mut Run) -> String {
    let (mut pe, st0) = scenario::monterey(24, 24, 5);
    // Moderate model-error amplitude so the front-following initial
    // uncertainty (the paper's posterior-mode structure) stays visible
    // over the forecast window.
    pe.config.noise_t = 0.01;
    let pe = esse_ocean::PeModel::new(pe.grid, pe.forcing, pe.config, pe.climatology);
    let grid = pe.grid.clone();
    let model = PeForecastModel::new(pe);
    let mean0 = st0.pack();
    let prior = esse_core::priors::front_weighted_temperature_prior(&grid, &st0, 24, 0.5, 2.5, 2);
    // Cancelling at convergence keeps the posterior to the decided
    // prefix, so the maps do not depend on thread timing.
    let cfg = MtcConfig {
        workers: 4,
        schedule: EnsembleSchedule::new(16, 48),
        tolerance: 0.08,
        duration: 8.0 * 3600.0,
        svd_stride: 16,
        max_rank: 40,
        completion: CompletionPolicy::CancelImmediately,
        ..Default::default()
    };
    let out = MtcEsse::new(&model, cfg).run(RunInit::new(&mean0, &prior)).expect("ensemble run");
    run.notes.push(format!("timing, not checked: ensemble makespan {:.2?}", out.makespan));

    let std_field = out.subspace.std_field();
    let t_off = OceanState::t_offset(&grid);
    let sst = Field2::from_fn(grid.nx, grid.ny, |i, j| std_field[t_off + j * grid.nx + i]);
    let t30 = Field2::from_fn(grid.nx, grid.ny, |i, j| match grid.level_at_depth(i, j, 30.0) {
        Some(k) => std_field[t_off + (k * grid.ny + j) * grid.nx + i],
        None => 0.0,
    });
    // The coastal band (the last 5 wet columns of a row) against the
    // open ocean (columns 5-8), leaving out the 4-cell sponge rim whose
    // boundary-zone variance regional maps mask out.
    let (mut coastal, mut offshore) = (Vec::new(), Vec::new());
    for j in 4..grid.ny - 4 {
        let Some(last_wet) = (0..grid.nx).rev().find(|&i| grid.is_wet(i, j)) else { continue };
        for i in (0..grid.nx).filter(|&i| grid.is_wet(i, j)) {
            if last_wet - i <= 4 {
                coastal.push(sst.get(i, j));
            } else if (5..=8).contains(&i) {
                offshore.push(sst.get(i, j));
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (mc, mo) = (mean(&coastal), mean(&offshore));

    let dir = std::path::Path::new("target/uncertainty_maps");
    std::fs::create_dir_all(dir).expect("create target/uncertainty_maps");
    std::fs::write(dir.join("sst_std.csv"), render::to_csv(&grid, &sst))
        .expect("write the SST CSV");
    std::fs::write(dir.join("t30_std.csv"), render::to_csv(&grid, &t30))
        .expect("write the 30 m CSV");
    run.notes.push(format!("CSV fields written to {}", dir.display()));

    let rows = [
        ["members in the posterior".into(), out.members_used.to_string()],
        ["converged".into(), out.converged.to_string()],
        ["subspace rank".into(), out.subspace.rank().to_string()],
        ["coastal-band mean SST σ".into(), format!("{mc:.4} °C")],
        ["offshore mean SST σ".into(), format!("{mo:.4} °C")],
        ["coastal / offshore".into(), format!("{:.2}", mc / mo)],
    ];
    format!(
        "{}\n```text\n{}\n{}```\n",
        table(["quantity", "ours"], rows),
        render::ascii_map(&grid, &sst, "Figure 5 analogue: SST uncertainty (°C std)"),
        render::ascii_map(&grid, &t30, "Figure 6 analogue: 30 m T uncertainty (°C std)"),
    )
}

fn ext(run: &mut Run) -> String {
    let mut out = String::from("**Mixed local/Grid/EC2 ensemble, 960 members.**\n\n");
    let w = WorkloadSpec::default();
    let pools = [
        presets::home(210),
        presets::teragrid_purdue(128, 1800.0),
        presets::teragrid_ornl(100, 3600.0),
        presets::ec2_c1xlarge(20),
    ];
    let rows = pools.iter().map(|p| {
        let inputs = if p.fast_input_access { "local" } else { "split pert: ICs shipped" };
        [
            p.name.to_string(),
            p.slots.to_string(),
            format!("{:.0} s", p.availability_delay_s),
            format!("{:.1} s", member_time(&w, p)),
            inputs.into(),
        ]
    });
    out += &table(["pool", "slots", "queue delay", "member time", "inputs"], rows);
    let home = plan(&w, &pools[..1], 960).makespan_s;
    let naive = plan(&w, &pools, 960).makespan_s;
    let mixed = plan_balanced(&w, &pools, 960);
    out += &format!(
        "\nHome only {:.1} min; proportional member blocks {:.1} min; makespan-balanced \
         blocks {:.1} min ({:.0}% faster than home alone):\n\n",
        home / 60.0,
        naive / 60.0,
        mixed.makespan_s / 60.0,
        100.0 * (1.0 - mixed.makespan_s / home)
    );
    let rows = mixed.blocks.iter().map(|b| {
        [
            pools[b.pool].name.to_string(),
            format!("{}..{}", b.first, b.first + b.count),
            format!("{:.1} min", b.completion_s / 60.0),
        ]
    });
    out += &table(["pool", "members", "completes at"], rows);
    let split = presets::teragrid_ornl(100, 0.0);
    let unsplit = ResourcePool { fast_input_access: true, ..split.clone() };
    out += &format!(
        "\nCompletion-order inversions (sampled): {}. Split pert/pemodel on ORNL: {:.1} s per \
         member split vs {:.1} s unsplit.\n\n",
        mixed.order_inversions(&pools, &w, 40),
        member_time(&w, &split),
        member_time(&w, &unsplit)
    );

    out += "**Job arrays vs per-job submission, 6000 jobs.**\n\n";
    let costs = SchedulerCosts::default();
    let strategies = [
        ("per-job", SubmissionStrategy::PerJob),
        ("arrays of 600", SubmissionStrategy::JobArray { chunk: 600 }),
    ];
    let rows = strategies.map(|(label, strategy)| {
        let r = evaluate(strategy, 6000, &costs);
        [
            label.into(),
            r.submissions.to_string(),
            r.tracked_records.to_string(),
            format!("{:.1} s", r.scheduler_load_s),
            format!("×{:.2}", r.latency_multiplier),
        ]
    });
    out += &table(["submission", "submissions", "records", "scheduler load", "latency"], rows);
    let completed: Vec<usize> = (0..380).collect();
    out += &format!(
        "\nRestart after 380/600 members: per-job reruns {}, arrays of 100 rerun {}.\n\n",
        restart_cost(SubmissionStrategy::PerJob, 600, &completed),
        restart_cost(SubmissionStrategy::JobArray { chunk: 100 }, 600, &completed)
    );

    out += "**Nested members as gangs, 600 member tasks of 1537 s on 210 cores.**\n\n";
    let rows = [2usize, 3, 4].map(|g| {
        let rep = pack_gangs(210, g, 600 / g, 1537.0);
        [
            g.to_string(),
            rep.gangs_per_wave.to_string(),
            rep.wasted_slots.to_string(),
            format!("{:.1} min", rep.makespan_s / 60.0),
            format!("{:.2}×", gang_overhead(210, g, 600 / g, 1537.0)),
        ]
    });
    out +=
        &table(["gang size", "gangs/wave", "wasted slots/wave", "makespan", "vs singletons"], rows);

    out += "\n**Ablation 1: Gram vs one-sided Jacobi SVD on spread matrices.**\n\n";
    let mut timings = Vec::new();
    let rows = [(2000usize, 32usize), (8000, 64), (20000, 96)].map(|(n_state, n_members)| {
        let m = randn_matrix(&mut StdRng::seed_from_u64(7), n_state, n_members);
        let t0 = Instant::now();
        let g = Svd::gram(&m).expect("Gram SVD");
        let t_gram = t0.elapsed();
        let j = Svd::jacobi(&m).expect("Jacobi SVD");
        let t_jacobi = t0.elapsed() - t_gram;
        timings.push(format!(
            "{n_state}×{n_members} Gram {:.2} ms, Jacobi {:.2} ms ({:.1}×)",
            t_gram.as_secs_f64() * 1e3,
            t_jacobi.as_secs_f64() * 1e3,
            t_jacobi.as_secs_f64() / t_gram.as_secs_f64()
        ));
        let rel = g.s.iter().zip(&j.s).map(|(a, b)| (a - b).abs() / b.max(1e-12));
        [format!("{n_state} × {n_members}"), format!("{:.2e}", rel.fold(0.0, f64::max))]
    });
    run.notes.push(format!("timing, not checked: {}", timings.join("; ")));
    out += &table(["spread matrix", "max σ relative difference"], rows);

    // Ablations 2-3 cancel at convergence: the posterior is the decided
    // prefix, and the counts below do not depend on thread timing.
    let model = LinearGaussianModel::diagonal(&[0.98, 0.95, 0.3, 0.2, 0.15, 0.1], 0.05, 1.0);
    let prior = ErrorSubspace::isotropic(&mut StdRng::seed_from_u64(3), 6, 6, 1.0);
    let ablate = |pool_factor, max, svd_stride| {
        let cfg = MtcConfig {
            workers: 4,
            pool_factor,
            schedule: EnsembleSchedule::new(16, max),
            tolerance: 0.05,
            duration: 10.0,
            max_rank: 6,
            svd_stride,
            completion: CompletionPolicy::CancelImmediately,
            ..Default::default()
        };
        MtcEsse::new(&model, cfg).run(RunInit::new(&[0.0; 6], &prior)).expect("ablation run")
    };
    out += "\n**Ablation 2: pool factor M/N.** Members seeded beyond the N decided ones are \
            wasted or cancelled; which of the two depends on thread timing, their sum does not.\n\n";
    let rows = [1.0, 1.25, 1.5, 2.0].map(|factor| {
        let o = ablate(factor, 256, 8);
        [
            format!("{factor:.2}"),
            o.members_used.to_string(),
            (o.members_wasted + o.members_cancelled).to_string(),
            o.converged.to_string(),
        ]
    });
    out += &table(["M/N", "members used", "over-provisioned", "converged"], rows);
    out += "\n**Ablation 3: SVD stride.** Convergence is detected at a checkpoint of the decided \
            prefix; a coarser stride detects it later.\n\n";
    let rows = [2usize, 8, 32].map(|stride| {
        let o = ablate(1.25, 512, stride);
        [stride.to_string(), o.svd_rounds.to_string(), o.members_used.to_string()]
    });
    out += &table(["stride", "SVD rounds", "decided prefix at convergence"], rows);

    out += "\n**Ablation 4: reference-profile pressure-gradient correction** on the resting \
            stratified Monterey topography.\n\n";
    let (pe, st0) = scenario::monterey(20, 20, 5);
    let g = &pe.grid;
    let profiles =
        [("with correction", RefProfile::from_state(g, &st0, 64)), ("without", RefProfile::zero())];
    let rows = profiles.map(|(label, profile)| {
        let phi = baroclinic_pressure(g, &st0.t, &st0.s, &profile);
        // The largest spurious along-sigma gradient over the shelf break.
        let mut worst = 0.0_f64;
        for k in 0..g.nz {
            for j in 2..g.ny - 2 {
                for i in 2..g.nx - 2 {
                    if g.is_wet(i, j) && g.is_wet(i + 1, j) && g.is_wet(i - 1, j) {
                        worst = worst.max(grad_x(g, &phi, i, j, k).abs());
                    }
                }
            }
        }
        // The equivalent geostrophic jet, u = PG / f.
        [label.into(), format!("{worst:.3e} m/s²"), format!("{:.2} m/s", worst / 8.8e-5)]
    });
    out += &table(["pressure gradient", "max abs ∂φ/∂x", "spurious jet"], rows);
    out
}

fn usage_error(why: &str) -> ! {
    eprintln!("paper_tables: {why}\nusage: {USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut run = Run { trace_out: None, notes: Vec::new() };
    let mut picked = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match (a.as_str(), SECTIONS.iter().find(|s| s.0 == a)) {
            ("--trace-out", _) => match argv.next() {
                Some(path) => run.trace_out = Some(path.into()),
                None => usage_error("--trace-out needs a path"),
            },
            (_, Some(section)) => picked.push(section),
            (other, None) => usage_error(&format!("unknown argument {other:?}")),
        }
    }
    if picked.is_empty() {
        picked = SECTIONS.iter().collect();
    }
    if run.trace_out.is_some() && !picked.iter().any(|s| s.0 == "E1") {
        usage_error("--trace-out records section E1");
    }
    for (id, section) in picked {
        let block = section(&mut run);
        println!("<!-- paper_tables {id} -->\n\n{block}\n<!-- /paper_tables -->");
        for note in run.notes.drain(..) {
            println!("{note}");
        }
        println!();
    }
}
