//! Runs the documented one command at `--quick` size and checks the
//! ledger's shape: every metric `BENCHMARK.json` declares is printed
//! exactly once per workload with its unit, and nothing else is.
//!
//! The harness drives the *shipped* release binaries, so the test first
//! builds them the way the README says to (a no-op when up to date).

use esse_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

/// `<target>/release/perf`, built together with the binaries it drives.
fn perf() -> &'static Path {
    static BUILT: OnceLock<PathBuf> = OnceLock::new();
    BUILT.get_or_init(|| {
        // CARGO_BIN_EXE_perf is <target>/<profile>/perf.
        let target = Path::new(env!("CARGO_BIN_EXE_perf"))
            .parent()
            .and_then(Path::parent)
            .expect("target directory")
            .to_path_buf();
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--bins", "-p", "esse", "-p", "esse-perf"])
            .arg("--target-dir")
            .arg(&target)
            .current_dir(repo_root())
            .status()
            .expect("run cargo build");
        assert!(status.success(), "building the release binaries failed");
        target.join("release").join("perf")
    })
}

fn workdir_root(tag: &str) -> PathBuf {
    perf().parent().and_then(Path::parent).expect("target directory").join(format!("perf-{tag}"))
}

/// name → unit for one `BENCHMARK.json` metric list.
fn declared(benchmark: &Value, list: &str) -> BTreeMap<String, String> {
    let Some(Value::Arr(items)) = benchmark.get(list) else {
        panic!("BENCHMARK.json has no {list}")
    };
    items
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn benchmark_json() -> (String, Value) {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let value = json::parse(&text).expect("BENCHMARK.json parses");
    (text, value)
}

#[test]
fn quick_run_prints_every_declared_metric_exactly_once_per_workload() {
    let (benchmark_text, benchmark) = benchmark_json();
    let declare = Command::new(perf()).arg("--declare").output().expect("perf --declare");
    assert_eq!(
        String::from_utf8_lossy(&declare.stdout),
        benchmark_text,
        "BENCHMARK.json is not what `perf --declare` prints"
    );
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    for name in end_to_end.keys().chain(per_layer.keys()) {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(!name.is_empty() && name.chars().all(ok), "metric name {name:?}");
    }
    let Some(Value::Arr(workloads)) = benchmark.get("workloads") else { panic!("no workloads") };
    let workloads: Vec<&str> =
        workloads.iter().map(|w| w.get("name").and_then(Value::as_str).expect("name")).collect();

    let root = workdir_root("smoke");
    let results = root.join("results.json");
    let out = Command::new(perf())
        .args(["--quick", "--seed", "5", "--workdir-root"])
        .arg(&root)
        .arg("--out")
        .arg(&results)
        .output()
        .expect("run perf --quick");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perf --quick failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The printed tables: one row per declared metric in each section.
    let sections: Vec<&str> = stdout.split("\n== ").skip(1).collect();
    assert_eq!(sections.len(), workloads.len(), "one section per workload:\n{stdout}");
    for (section, workload) in sections.iter().zip(&workloads) {
        assert!(section.starts_with(workload), "sections follow BENCHMARK.json order");
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let rows: Vec<&str> =
                section.lines().filter(|l| l.split_whitespace().next() == Some(name)).collect();
            assert_eq!(rows.len(), 1, "{workload}: {name} printed {} times", rows.len());
            assert!(
                rows[0].split_whitespace().any(|f| f == unit),
                "{workload}: {name} printed without its unit {unit}: {}",
                rows[0]
            );
        }
        assert!(section.contains("posterior fnv64 "), "{workload}: posterior fingerprint printed");
        assert!(
            section.contains("attrib: explained = "),
            "{workload}: attribution formula printed"
        );
    }
    assert!(stdout.contains("posteriors are byte-identical"), "cross-transport check ran");
    for fact in ["nproc", "cpu_model", "workdir_fs", "rustc", "git_commit", "seed"] {
        assert!(stdout.lines().any(|l| l.starts_with(fact)), "environment records {fact}");
    }

    // The result file: exactly the declared sets, nothing undeclared.
    let file =
        json::parse(&std::fs::read_to_string(&results).expect("results file")).expect("json");
    for workload in &workloads {
        let w = file.get("workloads").and_then(|w| w.get(workload)).expect("workload in results");
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(w.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
        for (list, want) in [("end_to_end", &end_to_end), ("per_layer", &per_layer)] {
            let Some(Value::Obj(got)) = w.get(list) else { panic!("{workload} has no {list}") };
            let got: BTreeMap<String, String> = got
                .iter()
                .map(|(k, v)| {
                    (k.clone(), v.get("unit").and_then(Value::as_str).unwrap().to_string())
                })
                .collect();
            assert_eq!(&got, want, "{workload}: {list} differs from BENCHMARK.json");
        }
    }
    // Successful runs clean up after themselves; the span files stay.
    for workload in &workloads {
        let left: Vec<String> = std::fs::read_dir(root.join(workload))
            .expect("workload directory")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, ["probes.jsonl"], "{workload} left {left:?} behind");
    }
    std::fs::remove_dir_all(&root).expect("remove smoke workdirs");
}

#[test]
fn driver_invocation_ends_with_the_contract_line() {
    let (_, benchmark) = benchmark_json();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let root = workdir_root(&format!("driver-{trace}"));
        let out = Command::new(perf())
            .args(["--quick", "--workload", "inproc_wide", "--seed", "9", "--seconds", "1"])
            .args(["--trace", trace, "--workdir-root"])
            .arg(&root)
            .output()
            .expect("run perf as the driver does");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "driver-style run failed:\n{stdout}");
        let line = json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
        let Value::Obj(fields) = &line else { panic!("last line is not an object") };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let Some(Value::Obj(metrics)) = line.get("metrics") else { panic!("no metrics") };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(k, v)| {
                assert!(v.get("value").and_then(Value::as_f64).is_some(), "{k} has no value");
                (k.clone(), v.get("unit").and_then(Value::as_str).unwrap().to_string())
            })
            .collect();
        assert_eq!(got, declared(&benchmark, list), "--trace {trace} prints exactly {list}");
        std::fs::remove_dir_all(&root).expect("remove driver workdirs");
    }
}
