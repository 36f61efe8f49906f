//! Shared plumbing for the process-level workflow binaries
//! (`pert`, `pemodel`, `esse_master`): argument parsing and the domain
//! specification both sides must agree on.

use esse_core::error::EsseError;
use esse_core::model::ForecastError;
use esse_ocean::{scenario, OceanState, PeModel};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Child, Command};
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

/// Fetch a required argument or exit with a usage message.
pub fn require<'a>(args: &'a HashMap<String, String>, key: &str, usage: &str) -> &'a str {
    match args.get(key) {
        Some(v) => v,
        None => {
            eprintln!("missing --{key}\nusage: {usage}");
            std::process::exit(2);
        }
    }
}

/// Parse a typed argument with a default.
pub fn get_or<T: std::str::FromStr>(args: &HashMap<String, String>, key: &str, default: T) -> T {
    args.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
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
pub mod files {
    /// The mean (analysis/initial) state.
    pub const MEAN: &str = "mean.vec";
    /// The prior error subspace.
    pub const PRIOR: &str = "prior.sub";
    /// The central (unperturbed) forecast.
    pub const CENTRAL: &str = "fc_central.vec";
    /// The posterior subspace written by the master.
    pub const POSTERIOR: &str = "posterior.sub";

    /// Member initial-condition file.
    pub fn ic(member: usize) -> String {
        format!("ic_{member}.vec")
    }

    /// Member forecast file.
    pub fn fc(member: usize) -> String {
        format!("fc_{member}.vec")
    }
}

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
    fn typed_defaults() {
        let m = parse_args(&["--n".to_string(), "7".to_string()]);
        assert_eq!(get_or(&m, "n", 0usize), 7);
        assert_eq!(get_or(&m, "missing", 42usize), 42);
        assert_eq!(get_or(&m, "n", 0.0f64), 7.0);
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
