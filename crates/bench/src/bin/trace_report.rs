//! Turn an `esse-obs` JSONL trace into a run report.
//!
//! ```text
//! cargo run --release -p esse-bench --bin trace_report -- run.jsonl
//! cargo run --release -p esse-bench --bin trace_report -- run.jsonl --markdown
//! cargo run --release -p esse-bench --bin trace_report -- pool.trace.jsonl \
//!     --assert-fleet-path --assert-zero-orphans
//! ```
//!
//! The report is computed from the events alone (no engine state): the
//! per-phase breakdown, per-layer lane groups, queue-wait vs
//! service-time decomposition, windowed throughput, stragglers and the
//! critical path all come out of [`LoadedTrace::analyze`]. The fleet
//! gates exit 1 unless a merged fleet trace's critical path crosses the
//! process boundary (`--assert-fleet-path`) or every remote task span is
//! anchored to a coordinator enqueue (`--assert-zero-orphans`).

use esse_obs::analyze::RunAnalysis;
use esse_obs::LoadedTrace;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str =
    "trace_report TRACE.jsonl [--markdown] [--assert-fleet-path] [--assert-zero-orphans]";

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
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
    let mut markdown = false;
    let mut assert_fleet_path = false;
    let mut assert_zero_orphans = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--assert-fleet-path" => assert_fleet_path = true,
            "--assert-zero-orphans" => assert_zero_orphans = true,
            "--markdown" => markdown = true,
            other if trace_path.is_none() && !other.starts_with("--") => {
                trace_path = Some(PathBuf::from(other))
            }
            other => {
                eprintln!("unknown argument {other}\nusage: {USAGE}");
                exit(2);
            }
        }
    }
    let Some(trace_path) = trace_path else {
        eprintln!("usage: {USAGE}");
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
}
