//! Turn an `esse-obs` JSONL trace into a run report, and optionally
//! gate it against a committed benchmark baseline.
//!
//! ```text
//! cargo run --release -p esse-bench --bin trace_report -- run.jsonl
//! cargo run --release -p esse-bench --bin trace_report -- run.jsonl --markdown
//! cargo run --release -p esse-bench --bin trace_report -- run.jsonl \
//!     --baseline BENCH_baseline.json --assert-max-regression 25
//! cargo run --release -p esse-bench --bin trace_report -- run.jsonl \
//!     --write-baseline BENCH_new.json
//! ```
//!
//! The report is computed from the events alone (no engine state): the
//! per-phase breakdown, per-layer lane groups, queue-wait vs
//! service-time decomposition, windowed throughput, stragglers and the
//! critical path all come out of [`LoadedTrace::analyze`].
//!
//! Baselines are JSON files with schema `esse-bench-baseline-v1`
//! holding a curated `metrics` map. Direction is inferred from the
//! metric name: `_ns`/`_ms`/`_s` suffixes are durations (lower is
//! better); everything else — counts, coverage, speedup, throughput —
//! is higher-is-better. `--assert-max-regression PCT` exits nonzero if
//! any baseline metric regressed by more than PCT percent, or vanished
//! from the trace entirely.
//!
//! One committed baseline can pin metrics from *several* trace kinds
//! (the fault_sweep run, the `pool_bench` transport harness, …).
//! `--baseline-prefix P` (repeatable) restricts the gate to the
//! baseline metrics whose names start with any given prefix, so each
//! CI job checks exactly the slice its trace can produce.

use esse_obs::analyze::RunAnalysis;
use esse_obs::json::{parse, Value};
use esse_obs::LoadedTrace;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Flatten the analysis into a flat name → value map, the currency the
/// baseline gate and `--write-baseline` trade in.
fn metric_map(a: &RunAnalysis) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    m.insert("makespan_ms".into(), ms(a.makespan_ns));
    m.insert("tasks".into(), a.task_count as f64);
    m.insert("peak_throughput_per_s".into(), a.peak_throughput_per_s());
    m.insert("critical_path_busy_ms".into(), ms(a.critical_path.busy_ns));
    m.insert("critical_path_wait_ms".into(), ms(a.critical_path.wait_ns));
    if let Some(w) = &a.queue_wait {
        m.insert("queue_wait_p50_ms".into(), ms(w.p50_ns));
        m.insert("queue_wait_p95_ms".into(), ms(w.p95_ns));
        m.insert("queue_wait_p99_ms".into(), ms(w.p99_ns));
    }
    for g in &a.lane_groups {
        m.insert(format!("{}_span_ms", g.group), ms(g.span_ns));
        m.insert(format!("{}_tasks", g.group), g.tasks as f64);
    }
    for (name, v) in &a.counters {
        m.insert(name.clone(), *v);
    }
    if a.pool.any() {
        m.insert("pool_tasks_seeded".into(), a.pool.tasks_seeded as f64);
        m.insert("pool_leases_granted".into(), a.pool.leases_granted as f64);
        m.insert("pool_results_ingested".into(), a.pool.results_ingested as f64);
    }
    if a.fleet.any() {
        m.insert("fleet_workers".into(), a.fleet.workers.len() as f64);
        m.insert("fleet_remote_tasks".into(), a.fleet.remote_tasks as f64);
        if let Some(e) = a.fleet.enqueue_to_claim {
            m.insert("fleet_enqueue_to_claim_mean_ms".into(), ms(e.mean_ns));
        }
        if let Some(e) = a.fleet.publish_to_ingest {
            m.insert("fleet_publish_to_ingest_mean_ms".into(), ms(e.mean_ns));
        }
    }
    m
}

/// Durations regress upward; everything else regresses downward.
fn lower_is_better(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with("_ms") || name.ends_with("_s")
}

/// Signed regression in percent (positive = worse than baseline).
fn regression_pct(name: &str, base: f64, now: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    if lower_is_better(name) {
        100.0 * (now - base) / base.abs()
    } else {
        100.0 * (base - now) / base.abs()
    }
}

fn load_baseline(path: &PathBuf) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let v = parse(&text)?;
    let Value::Obj(top) = &v else { return Err("baseline is not a JSON object".into()) };
    match top.get("schema").and_then(Value::as_str) {
        Some("esse-bench-baseline-v1") => {}
        other => return Err(format!("unsupported baseline schema {other:?}")),
    }
    let Some(Value::Obj(metrics)) = top.get("metrics") else {
        return Err("baseline has no metrics object".into());
    };
    let mut out = BTreeMap::new();
    for (k, v) in metrics {
        let n = v.as_f64().ok_or_else(|| format!("metric {k:?} is not a number"))?;
        out.insert(k.clone(), n);
    }
    Ok(out)
}

fn write_baseline(path: &PathBuf, metrics: &BTreeMap<String, f64>) -> std::io::Result<()> {
    let mut s = String::from("{\n  \"schema\": \"esse-bench-baseline-v1\",\n  \"metrics\": {\n");
    let last = metrics.len().saturating_sub(1);
    for (i, (k, v)) in metrics.iter().enumerate() {
        s.push_str(&format!("    \"{k}\": {v}"));
        s.push_str(if i == last { "\n" } else { ",\n" });
    }
    s.push_str("  }\n}\n");
    std::fs::write(path, s)
}

fn render(a: &RunAnalysis, markdown: bool) -> String {
    let mut out = String::new();
    let h = |s: &str| if markdown { format!("## {s}\n") } else { format!("== {s} ==\n") };
    out.push_str(&h("run summary"));
    out.push_str(&format!(
        "makespan {:.2} ms, {} task spans, peak throughput {:.1} tasks/s\n",
        ms(a.makespan_ns),
        a.task_count,
        a.peak_throughput_per_s()
    ));
    for g in &a.lane_groups {
        out.push_str(&format!(
            "layer {:<6}: {} lanes, window {:.2} ms, busy {:.2} ms, {} tasks\n",
            g.group,
            g.lanes,
            ms(g.span_ns),
            ms(g.busy_ns),
            g.tasks
        ));
    }
    if let Some(n) = a.resumed_members {
        out.push_str(&format!(
            "recovered run: resumed from checkpoint with {n} completed member(s)\n"
        ));
    }
    out.push('\n');
    out.push_str(&h("phase breakdown"));
    if markdown {
        out.push_str("| phase | count | total ms | mean ms | max ms |\n");
        out.push_str("|---|---|---|---|---|\n");
    } else {
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>10} {:>10}\n",
            "phase", "count", "total ms", "mean ms", "max ms"
        ));
    }
    for p in &a.phases {
        if markdown {
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.3} | {:.3} |\n",
                p.key,
                p.count,
                ms(p.total_ns),
                ms(p.mean_ns),
                ms(p.max_ns)
            ));
        } else {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12.3} {:>10.3} {:>10.3}\n",
                p.key,
                p.count,
                ms(p.total_ns),
                ms(p.mean_ns),
                ms(p.max_ns)
            ));
        }
    }
    if let Some(w) = &a.queue_wait {
        out.push('\n');
        out.push_str(&h("queue wait vs service time"));
        out.push_str(&format!(
            "{} waits: mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms\n",
            w.count,
            ms(w.mean_ns),
            ms(w.p50_ns),
            ms(w.p95_ns),
            ms(w.p99_ns),
            ms(w.max_ns)
        ));
    }
    if !a.stragglers.is_empty() {
        out.push('\n');
        out.push_str(&h("stragglers"));
        for s in a.stragglers.iter().take(8) {
            out.push_str(&format!(
                "lane {} member {}: {:.3} ms ({:.1}x mean)\n",
                s.lane,
                s.member.map_or_else(|| "?".into(), |m| m.to_string()),
                ms(s.duration_ns),
                s.factor
            ));
        }
    }
    out.push('\n');
    out.push_str(&h("critical path"));
    out.push_str(&format!(
        "{} segments: busy {:.3} ms, coordination wait {:.3} ms\n",
        a.critical_path.segments.len(),
        ms(a.critical_path.busy_ns),
        ms(a.critical_path.wait_ns)
    ));
    for seg in a.critical_path.segments.iter().take(12) {
        out.push_str(&format!(
            "  {:<12} {:<22} {:>10.3} ms (wait before {:.3} ms)\n",
            seg.lane,
            seg.key,
            ms(seg.end_ns - seg.start_ns),
            ms(seg.wait_before_ns)
        ));
    }
    if a.pool.any() {
        out.push('\n');
        out.push_str(&h("task pool"));
        out.push_str(&format!(
            "seeded {} task(s), leases granted {}, expired {}, \
             results ingested {}, fenced {} stale publish(es)\n",
            a.pool.tasks_seeded,
            a.pool.leases_granted,
            a.pool.leases_expired,
            a.pool.results_ingested,
            a.pool.fencing_rejected
        ));
        if a.pool.workers_spawned > 0 {
            out.push_str(&format!(
                "local fleet: {} worker spawn(s) by the coordinator\n",
                a.pool.workers_spawned
            ));
        }
        if a.pool.fencing_rejected > 0 || a.pool.leases_expired > 0 {
            out.push_str(
                "lease churn detected: expiries were reclaimed and every \
                 stale-epoch publish was fenced, not ingested\n",
            );
        }
        if a.pool.members_quarantined + a.pool.self_rejections > 0 {
            out.push_str(&format!(
                "semantic faults: {} member(s) quarantined at ingest, \
                 {} replacement(s) scheduled, {} worker self-rejection(s)\n",
                a.pool.members_quarantined, a.pool.replacements_scheduled, a.pool.self_rejections
            ));
        }
    }
    if a.net.any() {
        out.push('\n');
        out.push_str(&h("net transport"));
        out.push_str(&format!(
            "{} connect(s), {} disconnect(s), {} reject(s), {} advisory fence repl(ies)\n",
            a.net.connects, a.net.disconnects, a.net.rejects, a.net.fenced
        ));
        if a.net.connects > a.net.disconnects {
            out.push_str(&format!(
                "{} connection(s) still open at trace end\n",
                a.net.connects - a.net.disconnects
            ));
        }
    }
    if a.fleet.any() {
        out.push('\n');
        out.push_str(&h("fleet (merged distributed trace)"));
        out.push_str(&format!(
            "{} worker(s), {} remote task span(s), {} orphan edge(s){}\n",
            a.fleet.workers.len(),
            a.fleet.remote_tasks,
            a.fleet.orphan_edges,
            if a.fleet.orphan_edges == 0 { " — DAG valid" } else { " — DAG INVALID" }
        ));
        if !a.fleet.restarts.is_empty() {
            let incs: Vec<String> = a.fleet.restarts.iter().map(|i| format!("#{i}")).collect();
            let by_inc: Vec<String> =
                a.fleet.tasks_by_incarnation.iter().map(|&(i, n)| format!("#{i}: {n}")).collect();
            out.push_str(&format!(
                "coordinator restart(s): {} (incarnation {}); remote tasks by seeding \
                 incarnation: {}\n",
                a.fleet.restarts.len(),
                incs.join(", "),
                if by_inc.is_empty() { "none".to_string() } else { by_inc.join(", ") }
            ));
        }
        for w in &a.fleet.workers {
            out.push_str(&format!(
                "worker {}: clock offset {:+.3} ms (±{:.3} ms, {}), \
                 utilization {:.0}%, {} task(s), {} span(s) in {} batch(es), {} dropped\n",
                w.worker,
                w.offset_ns / 1e6,
                w.uncertainty_ns / 1e6,
                if w.constrained { "two-sided" } else { "one-sided" },
                w.utilization() * 100.0,
                w.tasks,
                w.spans,
                w.batches,
                w.dropped
            ));
            for p in w.phases.iter().filter(|p| p.key.starts_with("phase/")).take(6) {
                out.push_str(&format!(
                    "    {:<16} {:>5}x total {:>9.3} ms mean {:>8.3} ms max {:>8.3} ms\n",
                    p.key.trim_start_matches("phase/"),
                    p.count,
                    ms(p.total_ns),
                    ms(p.mean_ns),
                    ms(p.max_ns)
                ));
            }
        }
        if let Some(e) = a.fleet.enqueue_to_claim {
            out.push_str(&format!(
                "enqueue->claim: {} edge(s), mean {:.3} ms, max {:.3} ms\n",
                e.count,
                ms(e.mean_ns),
                ms(e.max_ns)
            ));
        }
        if let Some(e) = a.fleet.publish_to_ingest {
            out.push_str(&format!(
                "publish->ingest: {} edge(s), mean {:.3} ms, max {:.3} ms\n",
                e.count,
                ms(e.mean_ns),
                ms(e.max_ns)
            ));
        }
        out.push_str(&format!(
            "critical path {} the process boundary\n",
            if a.critical_path_crosses_fleet() { "crosses" } else { "does NOT cross" }
        ));
    }
    if !a.counters.is_empty() {
        out.push('\n');
        out.push_str(&h("final counters"));
        for (name, v) in &a.counters {
            out.push_str(&format!("{name} = {v}\n"));
        }
    }
    out
}

fn main() {
    let mut trace_path: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_to: Option<PathBuf> = None;
    let mut max_regression: Option<f64> = None;
    let mut prefixes: Vec<String> = Vec::new();
    let mut markdown = false;
    let mut assert_fleet_path = false;
    let mut assert_zero_orphans = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--assert-fleet-path" => assert_fleet_path = true,
            "--assert-zero-orphans" => assert_zero_orphans = true,
            "--baseline" => {
                baseline = Some(PathBuf::from(argv.next().expect("--baseline needs a path")))
            }
            "--baseline-prefix" => {
                prefixes.push(argv.next().expect("--baseline-prefix needs a prefix"))
            }
            "--write-baseline" => {
                write_to = Some(PathBuf::from(argv.next().expect("--write-baseline needs a path")))
            }
            "--assert-max-regression" => {
                let pct = argv.next().expect("--assert-max-regression needs a percentage");
                max_regression = Some(pct.parse().expect("--assert-max-regression needs a number"));
            }
            "--markdown" => markdown = true,
            other if trace_path.is_none() && !other.starts_with("--") => {
                trace_path = Some(PathBuf::from(other))
            }
            other => {
                eprintln!("unknown argument {other:?}");
                exit(2);
            }
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!(
            "usage: trace_report <trace.jsonl> [--markdown] [--baseline B.json] \
             [--baseline-prefix P]... [--assert-max-regression PCT] \
             [--write-baseline OUT.json] [--assert-fleet-path] [--assert-zero-orphans]"
        );
        exit(2);
    };

    let text = match std::fs::read_to_string(&trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: read {}: {e}", trace_path.display());
            exit(2);
        }
    };
    let trace = match LoadedTrace::from_jsonl(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: malformed trace {}: {e}", trace_path.display());
            exit(2);
        }
    };
    let analysis = trace.analyze();
    let metrics = metric_map(&analysis);
    print!("{}", render(&analysis, markdown));

    // Fleet gates: a tracing-enabled multi-worker run must produce a
    // merged timeline whose end-to-end chain crosses the process
    // boundary, with every remote task span anchored to a coordinator
    // enqueue (zero orphan edges).
    if assert_fleet_path {
        if !analysis.fleet.any() {
            eprintln!("FAIL: --assert-fleet-path: trace carries no merged fleet");
            exit(1);
        }
        if !analysis.critical_path_crosses_fleet() {
            eprintln!(
                "FAIL: --assert-fleet-path: critical path never enters a worker lane \
                 ({} segments, {} remote task spans)",
                analysis.critical_path.segments.len(),
                analysis.fleet.remote_tasks
            );
            exit(1);
        }
        println!("assert-fleet-path: OK (critical path crosses the process boundary)");
    }
    if assert_zero_orphans {
        if analysis.fleet.orphan_edges > 0 {
            eprintln!(
                "FAIL: --assert-zero-orphans: {} remote task span(s) have no matching \
                 coordinator enqueue (or a mismatched parent span id)",
                analysis.fleet.orphan_edges
            );
            exit(1);
        }
        println!(
            "assert-zero-orphans: OK ({} remote task spans all anchored)",
            analysis.fleet.remote_tasks
        );
    }

    if let Some(out) = &write_to {
        write_baseline(out, &metrics).expect("write baseline");
        println!("\nbaseline ({} metrics) -> {}", metrics.len(), out.display());
    }

    if let Some(base_path) = &baseline {
        let mut base = match load_baseline(base_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("FAIL: baseline {}: {e}", base_path.display());
                exit(2);
            }
        };
        if !prefixes.is_empty() {
            base.retain(|name, _| prefixes.iter().any(|p| name.starts_with(p.as_str())));
            if base.is_empty() {
                eprintln!("FAIL: no baseline metric matches --baseline-prefix {prefixes:?}");
                exit(2);
            }
        }
        let limit = max_regression.unwrap_or(f64::INFINITY);
        let mut failed = 0usize;
        println!("\n== baseline comparison vs {} ==", base_path.display());
        for (name, base_v) in &base {
            match metrics.get(name) {
                Some(now) => {
                    let pct = regression_pct(name, *base_v, *now);
                    let verdict = if pct > limit { "REGRESSED" } else { "ok" };
                    if pct > limit {
                        failed += 1;
                    }
                    println!(
                        "{name:<28} baseline {base_v:>12.3} now {now:>12.3} ({pct:+.1}%) {verdict}"
                    );
                }
                None => {
                    failed += 1;
                    println!("{name:<28} baseline {base_v:>12.3} now      MISSING  REGRESSED");
                }
            }
        }
        if max_regression.is_some() {
            if failed > 0 {
                eprintln!("FAIL: {failed} metric(s) regressed beyond {limit}%");
                exit(1);
            }
            println!(
                "assert-max-regression: OK (all {} baseline metrics within {limit}%)",
                base.len()
            );
        }
    }
}
