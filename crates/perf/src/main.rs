//! `perf` — the perf ledger (roadmap item 1): one harness, four
//! workloads, end-to-end and per-layer numbers, measured from outside.
//!
//! ```text
//! perf [--seed S] [--only WORKLOAD] [--repeats R] [--no-trace] [--quick]
//!      [--workdir-root DIR] [--out RESULTS.json]
//! perf --compare A.json B.json
//! perf --workload W --seed S --seconds T --trace 0|1     (benchmark driver)
//! perf --declare                                         (prints BENCHMARK.json)
//! perf --vet-seeds FROM COUNT                            (see `seeds.rs`)
//! ```
//!
//! Every workload is set up (scratch directories, seeded inputs, a
//! small warm-up run), run R ≥ 3 times with tracing off for the
//! end-to-end metrics, then — unless `--no-trace` — once more with the
//! program's existing `--trace-out`/`--metrics-out` (a `RingRecorder`
//! through `MtcEsse::with_recorder` in process), followed by the
//! isolated per-layer probes and the attribution row. Outputs are
//! checked on every run; any mismatch counts that run's members as
//! failed operations and the process exits non-zero. See `README.md`
//! beside this crate for the workloads and the metric glossary.

mod fleet;
mod metrics;
mod probes;
mod report;
mod seeds;
mod stats;
mod sys;
mod traced;
mod workloads;

use esse_obs::event::Lane;
use esse_obs::recorder::RecorderExt;
use esse_obs::ring::RingRecorder;
use probes::Measured;
use report::WorkloadReport;
use stats::Summary;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Kind, RunOutcome, Scenario, ScenarioInputs, Workload, WORKLOADS};

const USAGE: &str = "perf [--seed S] [--only WORKLOAD] [--repeats R] [--no-trace] [--quick] \
                     [--workdir-root DIR] [--out RESULTS.json]\n\
                     perf --compare A.json B.json\n\
                     perf --workload W --seed S --seconds T --trace 0|1\n\
                     perf --declare\n\
                     perf --vet-seeds FROM COUNT";

/// Timed repeats when no time budget is given, and the floor under one.
const MIN_REPEATS: usize = 3;
/// Set-ups per invocation; `setup_s` is their median.
const SETUPS: usize = 3;

struct Opts {
    seed: u64,
    only: Option<String>,
    repeats: usize,
    /// Time budget for the timed repeats (the driver's `--seconds`).
    seconds: Option<f64>,
    /// Measure the end-to-end metrics (timed repeats, repeated set-up).
    end_to_end: bool,
    /// Run the traced run and the per-layer probes.
    per_layer: bool,
    /// Print the contract's one-line result for the selected workload.
    contract: bool,
    quick: bool,
    workdir_root: PathBuf,
    out: Option<PathBuf>,
}

fn fail_usage(why: &str) -> ! {
    eprintln!("perf: {why}\nusage: {USAGE}");
    std::process::exit(2);
}

fn parse_opts(args: &HashMap<String, String>) -> Opts {
    let known = [
        "seed",
        "only",
        "workload",
        "repeats",
        "seconds",
        "trace",
        "no-trace",
        "quick",
        "workdir-root",
        "out",
    ];
    if let Some(stray) = args.keys().find(|k| !known.contains(&k.as_str())) {
        fail_usage(&format!("unknown flag --{stray}"));
    }
    let number = |key: &str| {
        args.get(key)
            .map(|v| v.parse::<f64>().unwrap_or_else(|_| fail_usage(&format!("bad --{key} {v}"))))
    };
    let trace = args.get("trace").map(|v| match v.as_str() {
        "0" => false,
        "1" => true,
        other => fail_usage(&format!("--trace takes 0 or 1, got {other}")),
    });
    let only = args.get("workload").or_else(|| args.get("only")).cloned();
    if let Some(name) = &only {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            fail_usage(&format!("unknown workload {name}; the workloads are {}", names.join(", ")));
        }
    }
    if trace.is_some() && only.is_none() {
        fail_usage("--trace selects one workload's metric set; name it with --workload");
    }
    // Next to the executable's profile directory: `target/perf`, or
    // `$CARGO_TARGET_DIR/perf` — inside the checkout either way.
    let default_root = || {
        let exe = std::env::current_exe().expect("current exe path");
        exe.parent()
            .and_then(Path::parent)
            .map_or_else(|| PathBuf::from("target"), Path::to_path_buf)
            .join("perf")
    };
    Opts {
        seed: number("seed").map_or(1, |s| s as u64),
        only,
        repeats: number("repeats").map_or(MIN_REPEATS, |r| r as usize).max(1),
        seconds: number("seconds"),
        end_to_end: trace != Some(true),
        per_layer: trace.unwrap_or(!args.contains_key("no-trace")),
        contract: trace.is_some(),
        quick: args.contains_key("quick"),
        workdir_root: args.get("workdir-root").map_or_else(default_root, PathBuf::from),
        out: args.get("out").map(PathBuf::from),
    }
}

/// Everything done before the first timed repeat: scratch directories,
/// seeded inputs (kept for the in-process workload), one small untimed
/// warm-up run.
fn set_up(
    w: &Workload,
    sc: &Scenario,
    seed: u64,
    root: &Path,
) -> Result<Option<ScenarioInputs>, String> {
    let warm = workloads::warmup_of(w.kind, sc);
    match w.kind {
        Kind::Inproc => {
            let warm_inputs = ScenarioInputs::generate(&warm, seed);
            workloads::run_inproc(&warm, seed, &warm_inputs, None)?;
            Ok(Some(ScenarioInputs::generate(sc, seed)))
        }
        kind => {
            let dir = root.join("warmup");
            workloads::fresh_dir(&dir)?;
            workloads::run_fleet(kind, &warm, seed, &dir, false)?;
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove warm-up dir: {e}"))?;
            Ok(None)
        }
    }
}

fn run_once(
    w: &Workload,
    sc: &Scenario,
    seed: u64,
    inputs: Option<&ScenarioInputs>,
    dir: &Path,
    trace: bool,
) -> Result<RunOutcome, String> {
    match w.kind {
        Kind::Inproc => {
            let inputs = inputs.expect("set-up generated the inputs");
            let ring = trace.then(RingRecorder::new);
            workloads::run_inproc(sc, seed, inputs, ring.as_ref())
        }
        kind => {
            workloads::fresh_dir(dir)?;
            let out = workloads::run_fleet(kind, sc, seed, dir, trace)?;
            // Removed on success; a failed run's directory stays for the
            // post-mortem (logs, journal, pool).
            std::fs::remove_dir_all(dir).map_err(|e| format!("remove run dir: {e}"))?;
            Ok(out)
        }
    }
}

/// What a workload's runs leave for its probes.
struct Traced {
    run: RunOutcome,
    /// Median `ttc_s` of the timed (tracing-off) repeats.
    untraced_ttc_s: f64,
}

/// A failed step decided nothing the ledger can trust: its members count
/// as attempted and failed.
fn fail(report: &mut WorkloadReport, root: &Path, why: String) {
    report.attempted += report.members as u64;
    report.failed += report.members as u64;
    report.errors.push(format!("{why} (files kept under {})", root.display()));
}

/// First pass: set-up, timed repeats and the traced run of one workload.
fn measure_runs(w: &Workload, opts: &Opts) -> (WorkloadReport, Option<Traced>) {
    let sc = if opts.quick { w.quick } else { w.full };
    let root = opts.workdir_root.join(w.name);
    let mut report = WorkloadReport {
        name: w.name,
        scenario_seed: seeds::scenario_seed(w, opts.seed),
        members: sc.members(w.kind),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        posterior_fnv64: None,
        end_to_end: None,
        per_layer: None,
        attribution: None,
    };
    let traced = runs_into(w, &sc, opts, &root, &mut report).unwrap_or_else(|e| {
        fail(&mut report, &root, e);
        None
    });
    (report, traced)
}

/// Second pass: the isolated probes at the workload's shapes, the
/// traced run's metrics and the attribution row.
fn measure_layers(w: &Workload, opts: &Opts, traced: Traced, report: &mut WorkloadReport) {
    let sc = if opts.quick { w.quick } else { w.full };
    let root = opts.workdir_root.join(w.name);
    let shapes = probes::Shapes {
        sc,
        members: report.members,
        journal_records: traced.run.exact.journal_records,
        seed: report.scenario_seed,
        quick: opts.quick,
    };
    // The harness's own spans: the workload, each layer group under it,
    // each probe under its layer.
    let rec = RingRecorder::new();
    let workload_span = rec.span(Lane::Driver, "workload", w.name, Vec::new());
    let probe_dir = root.join("probes");
    let mut layers = probes::run_all(&shapes, &probe_dir, &rec);
    drop(workload_span);
    if let Err(e) = std::fs::remove_dir_all(&probe_dir) {
        fail(report, &root, format!("remove probe dir: {e}"));
    }
    traced::from_traced_run(w.kind, &traced.run, traced.untraced_ttc_s, &mut layers);
    report.attribution =
        Some(traced::attribute(w.kind, &sc, &traced.run, traced.untraced_ttc_s, &mut layers));
    report.per_layer = Some(layers);
    let path = root.join("probes.jsonl");
    match esse_obs::export::save(&rec.drain(), &path) {
        Ok(()) => println!("probe spans -> {}", path.display()),
        Err(e) => eprintln!("perf: cannot write {}: {e}", path.display()),
    }
}

/// Book one run's operations and check it against the workload's
/// invariants and the first run; a failed check fails every member the
/// run decided.
fn account(run: &RunOutcome, first: Option<&RunOutcome>, report: &mut WorkloadReport) {
    let errors_before = report.errors.len();
    if run.exact.members_ingested != report.members as u64 {
        report.errors.push(format!(
            "{} members in the posterior, {} expected",
            run.exact.members_ingested, report.members
        ));
    }
    if run.exact.leases_expired != 0 {
        report.errors.push(format!("{} lease(s) expired", run.exact.leases_expired));
    }
    if let Some(why) = first.and_then(|first| run.differs_from(first)) {
        report.errors.push(format!("run does not repeat the first: {why}"));
    }
    let check_failed = report.errors.len() > errors_before;
    report.attempted += run.attempted;
    report.failed += if check_failed { run.attempted } else { run.failed };
}

fn runs_into(
    w: &Workload,
    sc: &Scenario,
    opts: &Opts,
    root: &Path,
    report: &mut WorkloadReport,
) -> Result<Option<Traced>, String> {
    std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let seed = report.scenario_seed;

    // --- Set-up, repeated so its median is steady. ---
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..if opts.end_to_end { SETUPS } else { 1 } {
        let t0 = Instant::now();
        inputs = set_up(w, sc, seed, root)?;
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.as_ref();

    // --- Timed repeats, tracing off. ---
    let mut runs: Vec<RunOutcome> = Vec::new();
    let measuring = Instant::now();
    loop {
        let enough = match opts.seconds {
            _ if !opts.end_to_end => !runs.is_empty(),
            // Stop when the next repeat would overrun the time budget.
            Some(budget) => {
                let last = runs.last().map_or(0.0, |r| r.ttc_s);
                runs.len() >= MIN_REPEATS && measuring.elapsed().as_secs_f64() + last > budget
            }
            None => runs.len() >= opts.repeats,
        };
        if enough {
            break;
        }
        let run = run_once(w, sc, seed, inputs, &root.join(runs.len().to_string()), false)?;
        account(&run, runs.first(), report);
        runs.push(run);
    }
    report.posterior_fnv64 = Some(runs[0].posterior.fnv64());
    let column = |f: &dyn Fn(&RunOutcome) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let ttc = column(&|r| r.ttc_s);
    if opts.end_to_end {
        let mut e2e = Measured::new();
        let decided = |r: &RunOutcome| r.exact.members_ingested.max(1) as f64;
        e2e.insert("ttc_s", Summary::of(&ttc));
        e2e.insert("members_per_s", Summary::of(&column(&|r| decided(r) / r.ttc_s)));
        e2e.insert("cpu_s_per_member", Summary::of(&column(&|r| r.cpu_s / decided(r))));
        e2e.insert("peak_rss_mb", Summary::of(&column(&|r| r.peak_rss_mb)));
        e2e.insert("setup_s", Summary::of(&setup_s));
        report.end_to_end = Some(e2e);
    }

    if !opts.per_layer {
        return Ok(None);
    }
    let run = run_once(w, sc, seed, inputs, &root.join("traced"), true)?;
    account(&run, runs.first(), report);
    Ok(Some(Traced { run, untraced_ttc_s: stats::median(&ttc) }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--declare") {
        print!("{}", metrics::benchmark_json());
        return;
    }
    if let Some(at) = argv.iter().position(|a| a == "--vet-seeds") {
        let number = |i: usize| argv.get(at + i).and_then(|v| v.parse::<u64>().ok());
        let (Some(from), Some(count)) = (number(1), number(2)) else {
            fail_usage("--vet-seeds takes FROM and COUNT");
        };
        seeds::vet(from, count);
        return;
    }
    if let Some(at) = argv.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (argv.get(at + 1), argv.get(at + 2)) else {
            fail_usage("--compare takes two result files");
        };
        match report::compare(Path::new(a), Path::new(b)) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("perf: {e}");
                std::process::exit(2);
            }
        }
    }
    let opts = parse_opts(&esse::cli::parse_args(&argv));
    for bin in ["esse_master", "esse_worker", "pert", "pemodel"] {
        if !workloads::sibling(bin).exists() {
            eprintln!(
                "perf: {} not found; build it first: \
                 cargo build --release --offline --bins -p esse -p esse-perf",
                workloads::sibling(bin).display()
            );
            std::process::exit(2);
        }
    }
    std::fs::create_dir_all(&opts.workdir_root).unwrap_or_else(|e| {
        eprintln!("perf: cannot create {}: {e}", opts.workdir_root.display());
        std::process::exit(2);
    });
    let env = report::Env::capture(&opts.workdir_root, opts.seed);
    env.print();

    // Two passes. Every run of every workload comes before the first
    // probe: a spawned child's `ru_maxrss` starts from the resident set of
    // the process that spawned it, and the probes' matrices would
    // otherwise be reported as a later fleet's peak.
    let selected: Vec<&Workload> =
        WORKLOADS.iter().filter(|w| opts.only.as_deref().is_none_or(|o| o == w.name)).collect();
    let measured: Vec<_> = selected.iter().map(|w| measure_runs(w, &opts)).collect();
    let mut reports = Vec::new();
    for (w, (mut report, traced)) in selected.iter().zip(measured) {
        if let Some(traced) = traced {
            measure_layers(w, &opts, traced, &mut report);
        }
        report::print_workload(&report);
        reports.push(report);
    }
    // The same scenario over two transports must give the same bytes.
    let fnv_of = |name: &str| {
        reports.iter().find(|r| r.name == name && r.correct()).and_then(|r| r.posterior_fnv64)
    };
    if let (Some(disk), Some(tcp)) = (fnv_of("manytask_disk"), fnv_of("manytask_tcp")) {
        if disk != tcp {
            let r = reports.iter_mut().find(|r| r.name == "manytask_tcp").expect("just found");
            r.errors
                .push(format!("posterior differs from manytask_disk ({tcp:016x} vs {disk:016x})"));
            r.failed = r.attempted;
            println!("\nFAIL manytask_tcp: {}", r.errors[0]);
        } else {
            println!(
                "\nmanytask_disk and manytask_tcp posteriors are byte-identical ({disk:016x})"
            );
        }
    }

    if let Some(out) = &opts.out {
        std::fs::write(out, report::results_json(&env, &reports)).unwrap_or_else(|e| {
            eprintln!("perf: cannot write {}: {e}", out.display());
            std::process::exit(2);
        });
        println!("results -> {}", out.display());
    }
    let correct = reports.iter().all(WorkloadReport::correct);
    if opts.contract {
        let r = &reports[0];
        let measured = if opts.per_layer { r.per_layer.is_some() } else { r.end_to_end.is_some() };
        if measured {
            println!("{}", report::contract_line(r, opts.per_layer));
        }
    }
    if !correct {
        std::process::exit(1);
    }
}
