//! What the harness prints and writes: the per-workload tables, the
//! result file `--compare` reads, the one-line result the benchmark
//! contract asks for, and the record of the box the numbers came from.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes::Measured;
use crate::stats::Summary;
use esse_obs::json::{self, push_f64, push_str_literal, Value};
use std::path::Path;

/// Everything measured on one workload.
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// The `--base-seed` / RNG seed the benchmark seed stands for here.
    pub scenario_seed: u64,
    /// Members one run decides.
    pub members: usize,
    /// Members decided over all runs made.
    pub attempted: u64,
    /// Of those, members that failed (all of a run that failed a check).
    pub failed: u64,
    /// What went wrong, if anything did.
    pub errors: Vec<String>,
    /// FNV-64 of the posterior (first run).
    pub posterior_fnv64: Option<u64>,
    /// End-to-end metrics over the timed repeats (absent for a
    /// per-layer-only invocation).
    pub end_to_end: Option<Measured>,
    /// Per-layer metrics (absent with tracing off).
    pub per_layer: Option<Measured>,
    /// The attribution formula, as evaluated.
    pub attribution: Option<String>,
}

impl WorkloadReport {
    /// Did every run succeed and every check hold?
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }
}

/// Where the numbers were taken.
pub struct Env {
    fields: Vec<(&'static str, String)>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

impl Env {
    /// Inspect this box. `workdir_root` must exist.
    pub fn capture(workdir_root: &Path, seed: u64) -> Env {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Env {
            fields: vec![
                ("nproc", nproc.to_string()),
                ("cpu_model", cpu),
                ("workdir_fs", fs_type(workdir_root)),
                ("rustc", command_line("rustc", &["--version"])),
                ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
                ("seed", seed.to_string()),
            ],
        }
    }

    /// One line per fact.
    pub fn print(&self) {
        for (k, v) in &self.fields {
            println!("{k:<12} {v}");
        }
        if self.fields.iter().any(|(k, v)| *k == "workdir_fs" && v == "tmpfs") {
            println!("note: workdirs are on tmpfs; the fsync-bound probes mean nothing there");
        }
    }
}

fn fmt_tail(s: &Summary) -> String {
    s.tail.map_or_else(String::new, |(p, v)| format!("p{:<4} {v:.4}", p * 100.0))
}

/// Print one workload's tables.
pub fn print_workload(r: &WorkloadReport) {
    println!("\n== {} ({} members/run, scenario seed {}) ==", r.name, r.members, r.scenario_seed);
    if let Some(fnv) = r.posterior_fnv64 {
        println!("posterior fnv64 {fnv:016x}");
    }
    println!("operations: {} attempted, {} failed", r.attempted, r.failed);
    for e in &r.errors {
        println!("FAIL {e}");
    }
    if let Some(e2e) = &r.end_to_end {
        println!(
            "{:<20} {:>12} {:>25} {:>4} {:>7}  {:<5} {:>5}",
            "end-to-end", "median", "min..max", "n", "iqr", "unit", "bound"
        );
        for d in &END_TO_END {
            let s = &e2e[d.name];
            let range = format!("{:.4}..{:.4}", s.min, s.max);
            let iqr = s.iqr_frac.map_or_else(String::new, |f| format!("{:.1}%", f * 100.0));
            println!(
                "{:<20} {:>12.4} {range:>25} {:>4} {iqr:>7}  {:<5} {:>4.0}%",
                d.name,
                s.median,
                s.n,
                d.unit,
                d.bound * 100.0
            );
        }
    }
    if let Some(layers) = &r.per_layer {
        println!("{:<38} {:>14} {:>20} {:>5}  unit", "per-layer", "p50", "tail", "n");
        for d in &PER_LAYER {
            let s = &layers[d.name];
            println!(
                "{:<38} {:>14.4} {:>20} {:>5}  {}",
                d.name,
                s.median,
                fmt_tail(s),
                s.n,
                d.unit
            );
        }
    }
    if let Some(formula) = &r.attribution {
        println!("attrib: explained = {formula}");
    }
}

fn json_metric(out: &mut String, name: &str, unit: &str, s: &Summary) {
    push_str_literal(out, name);
    out.push_str(": {\"unit\": ");
    push_str_literal(out, unit);
    for (key, v) in [("median", s.median), ("min", s.min), ("max", s.max), ("n", s.n as f64)] {
        out.push_str(&format!(", \"{key}\": "));
        push_f64(out, v);
    }
    out.push('}');
}

/// The result file: what `--compare` reads.
pub fn results_json(env: &Env, reports: &[WorkloadReport]) -> String {
    let mut out = String::from("{\"schema\": \"esse-perf-v1\", \"env\": {");
    for (i, (k, v)) in env.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_literal(&mut out, k);
        out.push_str(": ");
        push_str_literal(&mut out, v);
    }
    out.push_str("},\n\"workloads\": {");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_str_literal(&mut out, r.name);
        out.push_str(&format!(
            ": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"posterior_fnv64\": \"{}\"",
            r.correct(),
            r.attempted,
            r.failed,
            r.posterior_fnv64.map_or_else(String::new, |h| format!("{h:016x}")),
        ));
        out.push_str(",\n \"end_to_end\": {");
        for (j, d) in END_TO_END.iter().enumerate() {
            let Some(s) = r.end_to_end.as_ref().map(|m| &m[d.name]) else { break };
            out.push_str(if j > 0 { ",\n  " } else { "\n  " });
            json_metric(&mut out, d.name, d.unit, s);
        }
        out.push_str("},\n \"per_layer\": {");
        for (j, d) in PER_LAYER.iter().enumerate() {
            let Some(s) = r.per_layer.as_ref().map(|m| &m[d.name]) else { break };
            out.push_str(if j > 0 { ",\n  " } else { "\n  " });
            json_metric(&mut out, d.name, d.unit, s);
        }
        out.push_str("}}");
    }
    out.push_str("\n}}\n");
    out
}

/// The last line the benchmark contract asks for: `correct`,
/// `attempted`, `failed` and the chosen metric set of one workload.
pub fn contract_line(r: &WorkloadReport, per_layer: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted.max(1),
        r.failed
    );
    let mut first = true;
    let mut emit = |name: &str, unit: &str, value: f64| {
        if !std::mem::take(&mut first) {
            out.push_str(", ");
        }
        push_str_literal(&mut out, name);
        out.push_str(": {\"value\": ");
        push_f64(&mut out, value);
        out.push_str(", \"unit\": ");
        push_str_literal(&mut out, unit);
        out.push('}');
    };
    if per_layer {
        let m = r.per_layer.as_ref().expect("per-layer metrics were measured");
        PER_LAYER.iter().for_each(|d| emit(d.name, d.unit, m[d.name].median));
    } else {
        let m = r.end_to_end.as_ref().expect("end-to-end metrics were measured");
        END_TO_END.iter().for_each(|d| emit(d.name, d.unit, m[d.name].median));
    }
    out.push_str("}}");
    out
}

/// One end-to-end metric of one workload as read back from a result file.
struct Read {
    median: f64,
    min: f64,
    max: f64,
}

fn read_metric(file: &Value, workload: &str, metric: &str) -> Option<Read> {
    let m = file.get("workloads")?.get(workload)?.get("end_to_end")?.get(metric)?;
    let f = |k: &str| m.get(k).and_then(Value::as_f64);
    Some(Read { median: f("median")?, min: f("min")?, max: f("max")? })
}

/// `perf --compare A.json B.json`: one row per (workload, end-to-end
/// metric). `same` when the medians are within the metric's bound,
/// `differs` when not, `unresolved` when either file's own min..max
/// range is wider than the bound (the runs cannot tell). Returns true
/// when no row differs.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("parse {}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let Some(Value::Obj(workloads)) = a.get("workloads") else {
        return Err(format!("{} has no workloads", a_path.display()));
    };
    println!(
        "{:<16} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8}  verdict",
        "workload", "metric", "A median", "A min..max", "B median", "B min..max", "delta"
    );
    let mut all_same = true;
    for workload in workloads.keys() {
        for d in &END_TO_END {
            let (Some(ra), Some(rb)) =
                (read_metric(&a, workload, d.name), read_metric(&b, workload, d.name))
            else {
                return Err(format!("{workload}/{} is missing from one of the files", d.name));
            };
            let delta = (rb.median - ra.median) / ra.median;
            let wide = |r: &Read| (r.max - r.min) / r.median > d.bound;
            let verdict = if delta.abs() > d.bound {
                all_same = false;
                "differs"
            } else if wide(&ra) || wide(&rb) {
                "unresolved"
            } else {
                "same"
            };
            println!(
                "{:<16} {:<18} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}%  {verdict}",
                workload,
                d.name,
                ra.median,
                format!("{:.4}..{:.4}", ra.min, ra.max),
                rb.median,
                format!("{:.4}..{:.4}", rb.min, rb.max),
                delta * 100.0
            );
        }
    }
    Ok(all_same)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ttc: &[f64]) -> WorkloadReport {
        let mut e2e = Measured::new();
        for d in &END_TO_END {
            e2e.insert(d.name, Summary::of(if d.name == "ttc_s" { ttc } else { &[1.0, 1.0, 1.0] }));
        }
        WorkloadReport {
            name: "manytask_disk",
            scenario_seed: 4,
            members: 48,
            attempted: 144,
            failed: 0,
            errors: Vec::new(),
            posterior_fnv64: Some(0xABCD),
            end_to_end: Some(e2e),
            per_layer: None,
            attribution: None,
        }
    }

    fn write(tag: &str, ttc: &[f64]) -> std::path::PathBuf {
        let env = Env { fields: vec![("seed", "1".into())] };
        let path =
            std::env::temp_dir().join(format!("esse-perf-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, results_json(&env, &[report(ttc)])).unwrap();
        path
    }

    #[test]
    fn compare_flags_medians_beyond_the_bound_only() {
        let base = write("base", &[6.0, 6.1, 6.2]);
        let near = write("near", &[6.2, 6.3, 6.4]);
        let far = write("far", &[7.9, 8.0, 8.1]);
        assert!(compare(&base, &near).unwrap(), "3% apart is inside the bound");
        assert!(!compare(&base, &far).unwrap(), "31% apart is not");
        for p in [base, near, far] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn contract_line_is_one_json_object_with_every_end_to_end_metric() {
        let line = contract_line(&report(&[6.0, 6.1, 6.2]), false);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(144));
        let Some(Value::Obj(metrics)) = v.get("metrics") else { panic!("no metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics["ttc_s"].get("value").and_then(Value::as_f64), Some(6.1));
        assert_eq!(metrics["ttc_s"].get("unit").and_then(Value::as_str), Some("s"));
    }
}
