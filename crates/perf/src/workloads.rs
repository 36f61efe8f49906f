//! The four workloads and how one run of each is driven and checked.
//!
//! The fleet workloads run the *shipped* binaries — `esse_master`,
//! `esse_worker`, `pert`, `pemodel`, found next to this executable —
//! with only the flags a user would type; the in-process workload calls
//! the documented `MtcEsse::run`. The fleet is pinned at two workers
//! and no run converges (tolerance far below any rho the scenario
//! reaches), so every seed decides exactly the same number of members
//! and time-to-completion is comparable across seeds.

use crate::fleet::{proc_sample, Fleet};
use crate::{seeds, sys};
use esse::cli::files;
use esse::core::adaptive::EnsembleSchedule;
use esse::core::model::PeForecastModel;
use esse::core::perturb::PerturbConfig;
use esse::core::priors::smooth_temperature_prior;
use esse::core::subspace::ErrorSubspace;
use esse::fileio;
use esse::mtc::journal::{Journal, JournalRecord, JournalState};
use esse::mtc::workflow::{MtcConfig, MtcEsse, RunInit};
use esse::ocean::scenario;
use esse_obs::analyze::LoadedTrace;
use esse_obs::ring::RingRecorder;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Workers in every fleet (the reference box has two cores).
pub const WORKERS: usize = 2;
/// Convergence tolerance no scenario here ever meets.
const NEVER_CONVERGES: &str = "0.000001";
/// In-process over-provisioning (`MtcConfig::pool_factor` default).
const POOL_FACTOR: f64 = 1.25;
/// A run that takes longer than this is killed and counted as failed.
const RUN_TIMEOUT: Duration = Duration::from_secs(90);

/// How a workload is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `esse_master --workers 2` over the on-disk pool.
    Disk,
    /// `esse_master --workers 0 --listen` plus two `esse_worker --connect`.
    Tcp,
    /// `MtcEsse::run` inside the harness process.
    Inproc,
}

/// Scenario size.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// `monterey:NX,NY,NZ`.
    pub dims: (usize, usize, usize),
    /// Forecast length in hours.
    pub hours: f64,
    /// First ensemble stage.
    pub initial: usize,
    /// Last ensemble stage.
    pub max: usize,
}

impl Scenario {
    /// The `--domain` flag value.
    pub fn domain(&self) -> String {
        format!("monterey:{},{},{}", self.dims.0, self.dims.1, self.dims.2)
    }

    /// Members a full run decides.
    pub fn members(&self, kind: Kind) -> usize {
        match kind {
            Kind::Disk | Kind::Tcp => self.max,
            Kind::Inproc => (POOL_FACTOR * self.max as f64).ceil() as usize,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// How it runs.
    pub kind: Kind,
    /// Benchmark size.
    pub full: Scenario,
    /// `--quick` size (about an eighth).
    pub quick: Scenario,
    /// Base seeds the benchmark seed is mapped onto (see `seeds.rs`);
    /// `None` uses the seed as given.
    pub vetted_seeds: Option<&'static [u64; 16]>,
}

/// The benchmark's workloads, in the order they run.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "compute_disk",
        why: "member execution dominates (33792-value state, ~0.5 s pemodel per member): an ocean-kernel or fileio gain shows here, a claim/publish/journal gain should not",
        kind: Kind::Disk,
        full: Scenario { dims: (32, 32, 8), hours: 24.0, initial: 8, max: 16 },
        quick: Scenario { dims: (32, 32, 8), hours: 3.0, initial: 4, max: 4 },
        vetted_seeds: Some(&seeds::COMPUTE_SEEDS),
    },
    Workload {
        name: "manytask_disk",
        why: "many tiny members (24 ms of compute each): claim/publish/fsync/journal/polling/heartbeat/stage barriers set the time; the inverse of compute_disk",
        kind: Kind::Disk,
        full: Scenario { dims: (10, 10, 3), hours: 1.0, initial: 16, max: 48 },
        quick: Scenario { dims: (10, 10, 3), hours: 1.0, initial: 4, max: 4 },
        vetted_seeds: Some(&seeds::MANYTASK_SEEDS),
    },
    Workload {
        name: "manytask_tcp",
        why: "the manytask scenario through esse-net framing, wire staging and streamed results instead of renames: the gap to manytask_disk is the wire tax",
        kind: Kind::Tcp,
        full: Scenario { dims: (10, 10, 3), hours: 1.0, initial: 16, max: 48 },
        quick: Scenario { dims: (10, 10, 3), hours: 1.0, initial: 4, max: 4 },
        vetted_seeds: Some(&seeds::MANYTASK_SEEDS),
    },
    Workload {
        name: "inproc_wide",
        why: "library call MtcEsse::run with a wide ensemble and an SVD every 8 members: the subspace lane (esse-linalg, esse-core::subspace) dominates; pool, journal, fileio and net do nothing",
        kind: Kind::Inproc,
        full: Scenario { dims: (16, 16, 4), hours: 1.0, initial: 32, max: 128 },
        quick: Scenario { dims: (16, 16, 4), hours: 1.0, initial: 16, max: 32 },
        vetted_seeds: None,
    },
];

/// The warm-up run of set-up, enough to page everything in: for a fleet
/// the workload's own binaries and domain at four one-hour members; in
/// process a quarter-width ensemble.
pub fn warmup_of(kind: Kind, sc: &Scenario) -> Scenario {
    match kind {
        Kind::Inproc => Scenario { initial: sc.initial / 2, max: sc.max / 4, ..*sc },
        Kind::Disk | Kind::Tcp => Scenario { hours: 1.0, initial: 4, max: 4, ..*sc },
    }
}

/// Where the shipped binaries live: next to this executable.
pub fn sibling(name: &str) -> PathBuf {
    let mut exe = std::env::current_exe().expect("current exe path");
    exe.set_file_name(name);
    exe
}

/// Counters that must repeat exactly at a fixed seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Members in the final posterior.
    pub members_ingested: u64,
    /// SVD rounds (journal `SvdPublished`, or `MtcOutcome::svd_rounds`).
    pub svd_rounds: u64,
    /// Records in `run.journal`.
    pub journal_records: u64,
    /// Leases the coordinator expired (must be 0).
    pub leases_expired: u64,
}

/// Counters that depend on timing; reported, never asserted.
#[derive(Debug, Clone, Copy, Default)]
pub struct LooseCounts {
    /// Leases granted (a claim the coordinator happened to observe).
    pub leases_granted: u64,
    /// Lease renewals observed.
    pub leases_renewed: u64,
    /// Size of `run.journal`.
    pub journal_bytes: u64,
    /// Size of the coordinator workdir at exit.
    pub workdir_bytes: u64,
    /// Forecast bytes streamed over the wire (TCP only).
    pub net_bytes_streamed: u64,
}

/// What a run produced, in the form the repeat check compares.
#[derive(Debug, Clone, PartialEq)]
pub enum Posterior {
    /// `posterior.sub` as written by `esse_master`: byte-identical
    /// across repeats and across transports. Held as length and FNV-64
    /// rather than the bytes, so the harness stays small between runs
    /// (see [`reset_peak_rss`]).
    File {
        /// File length.
        len: usize,
        /// FNV-64 of the file.
        fnv: u64,
    },
    /// The in-process posterior: arrival order is not fixed, so rank
    /// must match and total variance agree to 1e-9 relative.
    InMemory {
        /// Retained modes.
        rank: usize,
        /// Σ variances.
        total_variance: f64,
        /// FNV-64 of the serialised subspace (printed, not compared).
        fnv: u64,
    },
}

impl Posterior {
    /// FNV-64 printed so two commits can be diffed by eye.
    pub fn fnv64(&self) -> u64 {
        match self {
            Posterior::File { fnv, .. } | Posterior::InMemory { fnv, .. } => *fnv,
        }
    }

    /// The repeat/transport equality rule.
    pub fn agrees_with(&self, other: &Posterior) -> bool {
        match (self, other) {
            (Posterior::File { .. }, Posterior::File { .. }) => self == other,
            (
                Posterior::InMemory { rank: ra, total_variance: va, .. },
                Posterior::InMemory { rank: rb, total_variance: vb, .. },
            ) => ra == rb && (va - vb).abs() <= 1e-9 * va.abs().max(vb.abs()),
            _ => false,
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// `/proc` view of the coordinator over a run (traced run only).
#[derive(Debug, Clone, Copy, Default)]
pub struct MasterSample {
    /// Last sampled `utime + stime` of `esse_master` itself.
    pub cpu_s: f64,
    /// Last sampled `VmHWM`, KiB.
    pub hwm_kb: i64,
}

/// Everything measured and checked on one run.
pub struct RunOutcome {
    /// Spawn (or call) → coordinator exit 0 (or `Ok`).
    pub ttc_s: f64,
    /// CPU seconds of the whole fleet.
    pub cpu_s: f64,
    /// Largest resident set of any fleet process, MB.
    pub peak_rss_mb: f64,
    /// Members the run had to decide.
    pub attempted: u64,
    /// Members that failed, were lost to quarantine, or all of them if
    /// the run itself failed.
    pub failed: u64,
    /// Exactly repeating counters.
    pub exact: ExactCounts,
    /// Timing-dependent counters.
    pub loose: LooseCounts,
    /// rho of every SVD round (bit patterns; NaN for the first).
    pub rho_bits: Vec<u64>,
    /// The posterior.
    pub posterior: Posterior,
    /// Coordinator `/proc` samples (only when sampling was requested).
    pub master: Option<MasterSample>,
    /// The run's trace (only for the traced run).
    pub trace: Option<LoadedTrace>,
}

impl RunOutcome {
    /// Why this run does not repeat `first`, if it does not.
    pub fn differs_from(&self, first: &RunOutcome) -> Option<String> {
        if !self.posterior.agrees_with(&first.posterior) {
            return Some(format!(
                "posterior differs (fnv64 {:016x} vs {:016x})",
                self.posterior.fnv64(),
                first.posterior.fnv64()
            ));
        }
        if self.exact != first.exact {
            return Some(format!("exact counts differ: {:?} vs {:?}", self.exact, first.exact));
        }
        // The in-process engine folds members in arrival order, so its
        // rho values agree only to rounding; the fleet's are bit-exact.
        if matches!(self.posterior, Posterior::File { .. }) && self.rho_bits != first.rho_bits {
            return Some("rho sequence differs".into());
        }
        None
    }
}

/// A scenario's inputs as `esse_master` builds them for its workdir:
/// what the in-process workload is handed (generated in set-up, never
/// timed), and what the probes and the seed vetting start from.
pub struct ScenarioInputs {
    /// The forecast model.
    pub model: PeForecastModel,
    /// Initial mean state.
    pub mean: Vec<f64>,
    /// Prior error subspace (seeded).
    pub prior: ErrorSubspace,
}

impl ScenarioInputs {
    /// The scenario's model and mean, and the prior seeded by `seed`.
    pub fn generate(sc: &Scenario, seed: u64) -> ScenarioInputs {
        let (pe, st0) = scenario::monterey(sc.dims.0, sc.dims.1, sc.dims.2);
        let prior = smooth_temperature_prior(&pe.grid, 12, 0.5, 2.5, seed);
        ScenarioInputs { model: PeForecastModel::new(pe), mean: st0.pack(), prior }
    }
}

/// Make `dir` a fresh, empty directory.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Run a fleet workload once in the fresh directory `dir` (the
/// coordinator's `--workdir` is `dir/work`; logs, metrics and trace sit
/// beside it). `seed` becomes `--base-seed`; `trace` adds the existing
/// `--trace-out` flag and samples the coordinator from `/proc` at 20 Hz.
pub fn run_fleet(
    kind: Kind,
    sc: &Scenario,
    seed: u64,
    dir: &Path,
    trace: bool,
) -> Result<RunOutcome, String> {
    let work = dir.join("work");
    let metrics = dir.join("metrics.prom");
    let trace_path = dir.join("trace.jsonl");
    let mut master = Command::new(sibling("esse_master"));
    master
        .arg("--workdir")
        .arg(&work)
        .args(["--domain", &sc.domain()])
        .args(["--hours", &sc.hours.to_string()])
        .args(["--initial", &sc.initial.to_string()])
        .args(["--max", &sc.max.to_string()])
        .args(["--tolerance", NEVER_CONVERGES])
        .args(["--base-seed", &seed.to_string()])
        .arg("--metrics-out")
        .arg(&metrics);
    match kind {
        Kind::Disk => master.args(["--workers", &WORKERS.to_string()]),
        Kind::Tcp => master.args(["--workers", "0", "--listen", "127.0.0.1:0"]),
        Kind::Inproc => return Err("run_fleet called for the in-process workload".into()),
    };
    if trace {
        master.arg("--trace-out").arg(&trace_path);
    }

    reset_peak_rss();
    let mut fleet = Fleet::default();
    let started = Instant::now();
    let deadline = started + RUN_TIMEOUT;
    let master_pid = fleet.spawn("esse_master", &mut master, &dir.join("master.log"))?;
    if kind == Kind::Tcp {
        let endpoint = work.join("pool").join(esse::net::ENDPOINT_FILE);
        let addr = loop {
            if let Ok(Some((addr, _generation))) = esse::net::read_endpoint(&endpoint) {
                break addr;
            }
            if fleet.leader_ended()? {
                return Err("esse_master exited before publishing pool/endpoint".into());
            }
            if Instant::now() >= deadline {
                return Err("timed out waiting for pool/endpoint".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        for id in 1..=WORKERS {
            let mut worker = Command::new(sibling("esse_worker"));
            worker
                .args(["--connect", &addr])
                .arg("--scratch")
                .arg(dir.join(format!("scratch-{id}")))
                .args(["--worker-id", &id.to_string()]);
            fleet.spawn("esse_worker", &mut worker, &dir.join(format!("worker-{id}.log")))?;
        }
    }

    let mut sample = MasterSample::default();
    let mut last_sample = started;
    let usage = fleet.wait(deadline, || {
        if trace && last_sample.elapsed() >= Duration::from_millis(50) {
            last_sample = Instant::now();
            if let Some((cpu_s, hwm_kb)) = proc_sample(master_pid) {
                sample = MasterSample { cpu_s, hwm_kb };
            }
        }
    })?;
    let ttc_s = (usage.leader_ended - started).as_secs_f64();

    // --- Outputs: posterior, journal, exported metrics. ---
    let posterior = std::fs::read(work.join(files::POSTERIOR))
        .map_err(|e| format!("posterior.sub missing after exit 0: {e}"))?;
    fileio::subspace_from_bytes(&posterior)
        .map_err(|e| format!("posterior.sub unreadable: {e}"))?;
    let journal_path = work.join("run.journal");
    let replay = Journal::replay(&journal_path).map_err(|e| format!("replay run.journal: {e}"))?;
    if replay.torn_bytes != 0 {
        return Err(format!(
            "run.journal has {} torn byte(s) after a clean exit",
            replay.torn_bytes
        ));
    }
    let state = JournalState::replay(&replay.records);
    let complete = state.complete.ok_or("journal has no RunComplete record")?;
    let ever_failed =
        replay.records.iter().filter(|r| matches!(r, JournalRecord::MemberFailed { .. })).count();
    if ever_failed != 0 {
        return Err(format!("journal contains {ever_failed} MemberFailed record(s)"));
    }
    let lost = state.quarantined.len() as u64;
    let prom = std::fs::read_to_string(&metrics).map_err(|e| format!("read metrics-out: {e}"))?;
    let counter = |name: &str| {
        prom.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.trim().parse::<f64>().ok()))
            .map_or(0, |v| v.round() as u64)
    };
    let loaded = if trace {
        let text = std::fs::read_to_string(&trace_path).map_err(|e| format!("read trace: {e}"))?;
        Some(LoadedTrace::from_jsonl(&text).map_err(|e| format!("parse trace: {e}"))?)
    } else {
        None
    };

    Ok(RunOutcome {
        ttc_s,
        cpu_s: usage.cpu_s,
        peak_rss_mb: usage.max_rss_kb as f64 / 1024.0,
        attempted: state.completed.len() as u64 + lost,
        failed: lost,
        exact: ExactCounts {
            members_ingested: complete,
            svd_rounds: state.svd_rounds.len() as u64,
            journal_records: replay.records.len() as u64,
            leases_expired: counter("esse_pool_lease_expired_total"),
        },
        loose: LooseCounts {
            leases_granted: counter("esse_pool_lease_granted_total"),
            leases_renewed: counter("esse_pool_lease_renewed_total"),
            journal_bytes: replay.valid_len,
            workdir_bytes: dir_bytes(&work),
            net_bytes_streamed: counter("esse_net_bytes_streamed_total"),
        },
        rho_bits: state.svd_rounds.iter().map(|r| r.rho.to_bits()).collect(),
        posterior: Posterior::File { len: posterior.len(), fnv: fnv64(&posterior) },
        master: trace.then_some(sample),
        trace: loaded,
    })
}

/// Bytes under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Restart this process's resident-set high-water mark from what is
/// resident now. The in-process workload reads the mark afterwards; for
/// a fleet it matters because a spawned child's `ru_maxrss` starts from
/// the spawning process's mark (the pre-exec image counts), so without
/// the reset an earlier workload's probe matrices would be reported as
/// `esse_master`'s peak. Not permitted in every sandbox; the peak is
/// then the process lifetime's, which a one-workload invocation still
/// reads right.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Run the in-process workload once on pre-generated inputs.
pub fn run_inproc(
    sc: &Scenario,
    seed: u64,
    inputs: &ScenarioInputs,
    recorder: Option<&RingRecorder>,
) -> Result<RunOutcome, String> {
    let cfg = MtcConfig {
        workers: WORKERS,
        pool_factor: POOL_FACTOR,
        schedule: EnsembleSchedule::new(sc.initial, sc.max),
        tolerance: 1e-9,
        max_rank: 64,
        perturb: PerturbConfig { base_seed: seed, ..PerturbConfig::default() },
        duration: sc.hours * 3600.0,
        svd_stride: 8,
        ..MtcConfig::default()
    };
    let mut engine = MtcEsse::new(&inputs.model, cfg);
    if let Some(rec) = recorder {
        engine = engine.with_recorder(rec);
    }
    reset_peak_rss();
    let cpu0 = sys::self_usage().cpu_s;
    let started = Instant::now();
    let out = engine
        .run(RunInit::new(&inputs.mean, &inputs.prior))
        .map_err(|e| format!("MtcEsse::run failed: {e}"))?;
    let ttc_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::self_usage().cpu_s - cpu0;
    let peak_rss_mb =
        proc_sample(std::process::id()).map_or(0.0, |(_, hwm_kb)| hwm_kb as f64 / 1024.0);

    if out.converged {
        return Err("in-process run converged; the workload must decide every member".into());
    }
    Ok(RunOutcome {
        ttc_s,
        cpu_s,
        peak_rss_mb,
        attempted: (out.members_used + out.members_failed) as u64,
        failed: out.members_failed as u64,
        exact: ExactCounts {
            members_ingested: out.members_used as u64,
            svd_rounds: out.svd_rounds as u64,
            ..ExactCounts::default()
        },
        loose: LooseCounts::default(),
        rho_bits: out.rho_history.iter().map(|r| r.to_bits()).collect(),
        posterior: Posterior::InMemory {
            rank: out.subspace.rank(),
            total_variance: out.subspace.total_variance(),
            fnv: fnv64(&fileio::subspace_to_bytes(&out.subspace)),
        },
        master: None,
        trace: recorder.map(|rec| LoadedTrace::from_trace(&rec.drain())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_synthetic_inputs() {
        let sc = WORKLOADS[3].quick;
        let a = ScenarioInputs::generate(&sc, 7);
        let b = ScenarioInputs::generate(&sc, 7);
        let c = ScenarioInputs::generate(&sc, 8);
        assert_eq!(a.mean, b.mean);
        assert_eq!(fileio::subspace_to_bytes(&a.prior), fileio::subspace_to_bytes(&b.prior));
        assert_ne!(fileio::subspace_to_bytes(&a.prior), fileio::subspace_to_bytes(&c.prior));
    }

    #[test]
    fn posterior_agreement_rules() {
        let file = |b: &[u8]| Posterior::File { len: b.len(), fnv: fnv64(b) };
        assert!(file(b"abc").agrees_with(&file(b"abc")));
        assert!(!file(b"abc").agrees_with(&file(b"abd")));
        let mem = |rank, total_variance| Posterior::InMemory { rank, total_variance, fnv: 0 };
        assert!(mem(8, 1.0).agrees_with(&mem(8, 1.0 + 1e-12)));
        assert!(!mem(8, 1.0).agrees_with(&mem(8, 1.0 + 1e-6)));
        assert!(!mem(8, 1.0).agrees_with(&mem(9, 1.0)));
        assert!(!mem(8, 1.0).agrees_with(&file(b"")));
    }

    #[test]
    fn fnv64_reference_values() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn workload_names_are_unique_and_sizes_shrink_in_quick_mode() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.quick.members(w.kind) * 2 <= w.full.members(w.kind), "{}", w.name);
        }
    }
}
