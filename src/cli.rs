//! Shared plumbing for the process-level workflow binaries
//! (`pert`, `pemodel`, `esse_master`, `esse_worker`): argument parsing,
//! the domain specification and semantic gate both sides must agree on,
//! and the engine configuration `esse_master`'s flags describe.

use esse_core::adaptive::{CompletionPolicy, EnsembleSchedule};
use esse_core::error::EsseError;
use esse_core::model::ForecastError;
use esse_core::perturb::PerturbConfig;
use esse_core::subspace::{ErrorSubspace, SubspaceStrategy};
use esse_core::validate::{ForecastValidator, ValidatorConfig};
use esse_mtc::{MtcConfig, RetryPolicy};
use esse_ocean::{scenario, Grid, OceanState, PeModel};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::str::FromStr;
use std::time::Duration;

/// Path of the shipped binary `name`: the workflow's executables are
/// installed side by side, next to the one running.
pub fn sibling(name: &str) -> PathBuf {
    let mut exe = std::env::current_exe().expect("current exe path");
    exe.set_file_name(name);
    exe
}

/// Parse `--key value` pairs (and bare `--flag`s as `"true"`).
pub fn parse_args(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    map
}

/// The first of `args` that `usage` does not account for: a `--flag` it
/// does not list, or a value that follows no flag.
fn unlisted<'a>(args: &'a [String], usage: &str) -> Option<&'a str> {
    let listed = |flag: &str| {
        usage.match_indices(flag).any(|(at, _)| {
            let next = usage[at + flag.len()..].chars().next();
            !next.is_some_and(|c| c.is_ascii_lowercase() || c == '-')
        })
    };
    let mut after_flag = false;
    for arg in args {
        if arg.starts_with("--") {
            if !listed(arg) {
                return Some(arg);
            }
            after_flag = true;
        } else if !std::mem::take(&mut after_flag) {
            return Some(arg);
        }
    }
    None
}

/// This process's arguments, parsed by [`parse_args`]; any argument
/// `usage` does not account for ([`unlisted`]) exits 2 with the usage.
pub fn args(usage: &str) -> HashMap<String, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = unlisted(&argv, usage) {
        eprintln!("unknown argument {arg}\nusage: {usage}");
        std::process::exit(2);
    }
    parse_args(&argv)
}

/// The value of `--key` parsed as a `T`, or `None` when the flag is
/// absent. A value that does not parse exits 2 naming the flag, as an
/// unknown flag does ([`args`]): a mistyped value is never a default.
pub fn get<T: FromStr>(args: &HashMap<String, String>, key: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let value = args.get(key)?;
    Some(value.parse().unwrap_or_else(|e| {
        eprintln!("bad --{key} {value:?}: {e}");
        std::process::exit(2);
    }))
}

/// The value of a required `--key` ([`get`]); a missing one exits 2
/// with the usage.
pub fn require<T: FromStr>(args: &HashMap<String, String>, key: &str, usage: &str) -> T
where
    T::Err: std::fmt::Display,
{
    get(args, key).unwrap_or_else(|| {
        eprintln!("missing --{key}\nusage: {usage}");
        std::process::exit(2);
    })
}

/// Build the model from a domain spec string.
///
/// Format: `monterey:NX,NY,NZ` — both the master and every `pemodel`
/// singleton must construct the *identical* model, like the paper's
/// executables sharing input files.
pub fn build_model(spec: &str) -> Result<(PeModel, OceanState), String> {
    let (kind, dims) = spec
        .split_once(':')
        .ok_or_else(|| format!("bad domain spec '{spec}', want kind:NX,NY,NZ"))?;
    let parts: Vec<usize> = dims
        .split(',')
        .map(|p| p.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad domain dims '{dims}': {e}"))?;
    if parts.len() != 3 {
        return Err(format!("domain dims need NX,NY,NZ, got '{dims}'"));
    }
    match kind {
        "monterey" => Ok(scenario::monterey(parts[0], parts[1], parts[2])),
        other => Err(format!("unknown domain kind '{other}'")),
    }
}

/// The semantic gate over a scenario's forecasts, with bounds around
/// the mean state and the central forecast. The coordinator applies it
/// at ingest and every worker as its pre-publish self-check; building
/// both here keeps a worker from rejecting a member the coordinator
/// would accept. `central` is `None` only where the run has none on disk.
pub fn scenario_gate(
    grid: &Grid,
    mean: &[f64],
    central: Option<&[f64]>,
    prior: &ErrorSubspace,
) -> ForecastValidator {
    let baselines: Vec<&[f64]> = std::iter::once(mean).chain(central).collect();
    ForecastValidator::for_scenario(grid, &baselines, prior, ValidatorConfig::default())
}

/// Attempts a member's task gets in `esse_master` before it is lost.
const TASK_ATTEMPTS: u32 = 3;

/// `--subspace`: `full` (the default), `incremental`, or
/// `incremental:REFRESH,TOL` (refresh cadence, orthonormality tolerance).
fn parse_subspace(v: &str) -> Option<SubspaceStrategy> {
    let (refresh, tol) = match v.strip_prefix("incremental") {
        _ if v == "full" => return Some(SubspaceStrategy::FullRecompute),
        Some("") => ("8", "1e-6"),
        rest => rest?.strip_prefix(':')?.split_once(',')?,
    };
    let (refresh_every, defect_tol) = (refresh.parse().ok()?, tol.parse().ok()?);
    Some(SubspaceStrategy::Incremental { refresh_every, defect_tol })
}

/// The engine configuration of `esse_master`'s flags: the schedule,
/// tolerance, seeds and forecast window, a lease that is the task
/// timeout, three attempts per task with a 20 ms doubling backoff, the
/// requeue budget, the checkpoint lane, an SVD every `initial / 2`
/// (≥ 4) decided members and cancellation on convergence. The local
/// fleet, the listener and the workdir are process work, not
/// configuration.
pub fn master_config(args: &HashMap<String, String>) -> Result<MtcConfig, String> {
    let (initial, max) =
        (get(args, "initial").unwrap_or(8usize), get(args, "max").unwrap_or(32usize));
    let subspace = parse_subspace(args.get("subspace").map_or("full", String::as_str))
        .ok_or("bad --subspace value (want full or incremental[:REFRESH,TOL])")?;
    let lease = Duration::from_millis(get(args, "lease-ms").unwrap_or(1200u64).max(50));
    let backoff = Duration::from_millis(20);
    let cfg = MtcConfig {
        pool_factor: 1.0,
        schedule: EnsembleSchedule::new(initial, max),
        tolerance: get(args, "tolerance").unwrap_or(0.08),
        mode_rel_tol: 1e-4,
        max_rank: 64,
        perturb: PerturbConfig {
            white_noise: get(args, "white-noise").unwrap_or(0.0),
            base_seed: get(args, "base-seed").unwrap_or(0x5EED),
            frozen_indices: Vec::new(),
        },
        duration: get(args, "hours").unwrap_or(6.0) * 3600.0,
        svd_stride: (initial / 2).max(4),
        completion: CompletionPolicy::CancelImmediately,
        retry: RetryPolicy::retries(TASK_ATTEMPTS)
            .with_backoff(backoff, 2.0, 0.0)
            .with_timeout(lease),
        subspace,
        requeue_budget: Some(get(args, "requeue-budget").unwrap_or(16u32).max(1)),
        ..MtcConfig::default()
    };
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

/// Spawn `cmd` with a bounded retry: a transient fork/ENOENT failure
/// (fork bomb pressure, an NFS blip on the executable) is retried with
/// a short exponential backoff instead of panicking the coordinator.
/// After `attempts` tries the error is propagated as
/// [`EsseError::TaskFailed`] so the caller can degrade the run —
/// `member` names the ensemble member the spawn was for (`None` for
/// run-level processes such as the central forecast or a worker).
pub fn spawn_with_retry(
    cmd: &mut Command,
    what: &str,
    member: Option<usize>,
    attempts: u32,
) -> Result<Child, EsseError> {
    let attempts = attempts.max(1);
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(10 << (attempt - 1).min(6)));
        }
        match cmd.spawn() {
            Ok(child) => return Ok(child),
            Err(e) => last = Some(e),
        }
    }
    let why = last.map_or_else(|| "unknown spawn failure".to_string(), |e| e.to_string());
    Err(EsseError::TaskFailed {
        member,
        attempts,
        source: ForecastError::Injected(format!("spawn {what}: {why}")),
    })
}

/// Workflow file names inside a working directory.
pub use esse_mtc::rundir as files;

/// Events the trace ring of `esse_master` or `esse_worker` holds
/// (a worker's between shipments).
pub const TRACE_CAPACITY: usize = 1 << 18;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_key_values_and_flags() {
        let args: Vec<String> = ["--workdir", "/tmp/x", "--resume", "--hours", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let m = parse_args(&args);
        assert_eq!(m.get("workdir").unwrap(), "/tmp/x");
        assert_eq!(m.get("resume").unwrap(), "true");
        assert_eq!(m.get("hours").unwrap(), "3");
    }

    #[test]
    fn unlisted_names_unknown_flags_and_stray_values() {
        let usage = "x --workdir DIR [--max N] [--max-rank R] [--resume]";
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = args(&["--workdir", "d", "--resume", "--max-rank", "3", "--max", "4"]);
        assert_eq!(unlisted(&ok, usage), None);
        assert_eq!(unlisted(&args(&["--work", "d"]), usage), Some("--work"));
        assert_eq!(unlisted(&args(&["--max-ranks", "3"]), usage), Some("--max-ranks"));
        assert_eq!(unlisted(&args(&["--max", "3", "4"]), usage), Some("4"));
    }

    #[test]
    fn typed_defaults() {
        let m = parse_args(&["--n".to_string(), "7".to_string()]);
        assert_eq!(get(&m, "n").unwrap_or(0usize), 7);
        assert_eq!(get(&m, "missing").unwrap_or(42usize), 42);
        assert_eq!(get(&m, "n").unwrap_or(0.0f64), 7.0);
    }

    #[test]
    fn domain_spec_roundtrip() {
        let (model, st) = build_model("monterey:10,12,3").unwrap();
        assert_eq!(model.grid.nx, 10);
        assert_eq!(model.grid.ny, 12);
        assert_eq!(model.grid.nz, 3);
        assert_eq!(st.pack().len(), model.state_dim());
        assert!(build_model("atlantis:1,2,3").is_err());
        assert!(build_model("monterey:1,2").is_err());
        assert!(build_model("nonsense").is_err());
    }

    #[test]
    fn spawn_retry_propagates_task_failed_instead_of_panicking() {
        let mut cmd = Command::new("/nonexistent/esse-no-such-binary");
        let err = spawn_with_retry(&mut cmd, "pert", Some(7), 2).unwrap_err();
        match err {
            EsseError::TaskFailed { member, attempts, source } => {
                assert_eq!(member, Some(7));
                assert_eq!(attempts, 2);
                assert!(source.to_string().contains("spawn pert"), "{source}");
            }
            other => panic!("expected TaskFailed, got {other}"),
        }
    }

    #[test]
    fn spawn_retry_succeeds_on_a_real_binary() {
        let mut cmd = Command::new("true");
        let mut child = spawn_with_retry(&mut cmd, "true", None, 3).unwrap();
        assert!(child.wait().unwrap().success());
    }

    #[test]
    fn file_names() {
        assert_eq!(files::ic(7), "ic_7.vec");
        assert_eq!(files::fc(12), "fc_12.vec");
    }
}
