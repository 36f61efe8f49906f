//! What the traced run adds to the ledger: the program's own spans
//! (loaded with `esse_obs::analyze`, the code `trace_report` uses),
//! the coordinator's `/proc` samples, the counters, and the attribution
//! row that asks whether the layer probes add up to the end-to-end time.

use crate::probes::Measured;
use crate::stats::Summary;
use crate::workloads::{Kind, RunOutcome, Scenario, WORKERS};
use esse::core::adaptive::EnsembleSchedule;
use esse_obs::analyze::{LoadedSpan, RunAnalysis};

fn put(m: &mut Measured, name: &'static str, value: f64) {
    assert!(m.insert(name, Summary::single(value)).is_none(), "{name} recorded twice");
}

const MS: f64 = 1e-6; // ns → ms

/// Mean duration in ms of the `cat/name` spans, 0 when the run has none.
fn phase_mean_ms(analysis: &RunAnalysis, key: &str) -> f64 {
    analysis.phases.iter().find(|p| p.key == key).map_or(0.0, |p| p.mean_ns as f64 * MS)
}

/// Summed duration in seconds of the `cat/name` spans.
fn phase_total_s(analysis: &RunAnalysis, key: &str) -> f64 {
    analysis.phases.iter().find(|p| p.key == key).map_or(0.0, |p| p.total_ns as f64 * 1e-9)
}

/// Mean task-span self time in ms: the span minus the `phase/*` spans
/// it encloses on its lane (claim, stage, pert, pemodel, publish).
fn task_self_ms(spans: &[LoadedSpan]) -> f64 {
    let tasks: Vec<&LoadedSpan> =
        spans.iter().filter(|s| s.cat == "task" && s.lane.starts_with("worker-")).collect();
    if tasks.is_empty() {
        return 0.0;
    }
    let covered = |t: &LoadedSpan| -> u64 {
        spans
            .iter()
            .filter(|s| {
                s.cat == "phase"
                    && s.lane == t.lane
                    && s.start_ns >= t.start_ns
                    && s.end_ns <= t.end_ns
            })
            .map(LoadedSpan::duration_ns)
            .sum()
    };
    let self_ns: u64 = tasks.iter().map(|t| t.duration_ns().saturating_sub(covered(t))).sum();
    self_ns as f64 * MS / tasks.len() as f64
}

/// Metrics read off the traced run. `untraced_ttc_s` is the median of
/// the timed (tracing-off) repeats of the same invocation.
pub fn from_traced_run(kind: Kind, run: &RunOutcome, untraced_ttc_s: f64, m: &mut Measured) {
    let trace = run.trace.as_ref().expect("the traced run carries its trace");
    let analysis = trace.analyze();
    let spans = trace.spans();
    let members = run.exact.members_ingested.max(1) as f64;

    put(m, "obs.trace_overhead_frac", run.ttc_s / untraced_ttc_s - 1.0);
    for (name, key) in [
        ("trace.phase_claim_ms", "phase/claim"),
        ("trace.phase_pert_ms", "phase/pert"),
        ("trace.phase_pemodel_ms", "phase/pemodel"),
        ("trace.phase_publish_ms", "phase/publish"),
    ] {
        put(m, name, phase_mean_ms(&analysis, key));
    }
    let enqueue_ms = match kind {
        // The in-process engine reports queue wait instead of fleet edges.
        Kind::Inproc => analysis.queue_wait.as_ref().map_or(0.0, |w| w.mean_ns as f64 * MS),
        _ => analysis.fleet.enqueue_to_claim.map_or(0.0, |e| e.mean_ns as f64 * MS),
    };
    put(m, "trace.enqueue_to_claim_ms", enqueue_ms);
    put(
        m,
        "trace.publish_to_ingest_ms",
        analysis.fleet.publish_to_ingest.map_or(0.0, |e| e.mean_ns as f64 * MS),
    );
    put(m, "trace.critpath_busy_ms", analysis.critical_path.busy_ns as f64 * MS);
    put(m, "trace.critpath_wait_ms", analysis.critical_path.wait_ns as f64 * MS);

    // --- bins: coordinator from /proc, workers from their spans. ---
    let master = run.master.unwrap_or_default();
    put(m, "bin.esse_master.cpu_s", master.cpu_s);
    put(m, "bin.esse_master.busy_frac", master.cpu_s / run.ttc_s);
    put(m, "bin.esse_master.peak_rss_mb", master.hwm_kb as f64 / 1024.0);
    let fleet = kind != Kind::Inproc;
    let workers = &analysis.fleet.workers;
    let (worker_cpu_s, task_self, util) = if fleet {
        let util = workers.iter().map(|w| w.utilization()).sum::<f64>() / workers.len() as f64;
        ((run.cpu_s - master.cpu_s).max(0.0), task_self_ms(&spans), util)
    } else {
        (0.0, 0.0, 0.0)
    };
    put(m, "bin.esse_worker.cpu_s", worker_cpu_s);
    put(m, "bin.esse_worker.task_ms", phase_mean_ms(&analysis, "task/task"));
    put(m, "bin.esse_worker.task_unattributed_ms", task_self);
    put(m, "bin.esse_worker.util_frac", util);

    // --- the in-process coordinator's own lanes. ---
    let svd_busy_s =
        phase_total_s(&analysis, "svd/svd") + phase_total_s(&analysis, "svd/svd_final");
    let inproc = |v: f64| if fleet { 0.0 } else { v };
    put(m, "mtc.workflow.svd_rounds", inproc(run.exact.svd_rounds as f64));
    put(m, "mtc.workflow.svd_busy_s", inproc(svd_busy_s));
    put(
        m,
        "mtc.workflow.worker_util_frac",
        inproc(phase_total_s(&analysis, "task/member") / (WORKERS as f64 * run.ttc_s)),
    );

    put(m, "net.bytes_per_member", run.loose.net_bytes_streamed as f64 / members);
    put(m, "count.members_ingested", run.exact.members_ingested as f64);
    put(m, "count.svd_rounds", run.exact.svd_rounds as f64);
    put(m, "count.journal_records", run.exact.journal_records as f64);
    put(m, "count.leases_expired", run.exact.leases_expired as f64);
    put(m, "count.leases_granted", run.loose.leases_granted as f64);
    put(m, "count.leases_renewed", run.loose.leases_renewed as f64);
    put(m, "count.journal_bytes", run.loose.journal_bytes as f64);
    put(m, "count.workdir_bytes", run.loose.workdir_bytes as f64);
}

/// The attribution row: layer probe cost × call count along the steps
/// that block the result, over the measured `ttc_s`. Returns the
/// formula as printed.
pub fn attribute(
    kind: Kind,
    sc: &Scenario,
    run: &RunOutcome,
    ttc_s: f64,
    m: &mut Measured,
) -> String {
    let ms = |name: &str| m[name].median;
    let us = |name: &str| m[name].median / 1e3;
    let members = run.exact.members_ingested as f64;
    let chain = (members / WORKERS as f64).ceil();
    let (explained_ms, formula) = match kind {
        Kind::Disk | Kind::Tcp => {
            let (claim, publish) = if kind == Kind::Disk {
                (us("mtc.pool.claim_us"), us("mtc.pool.publish_us"))
            } else {
                (us("net.claim_us"), us("net.publish_us"))
            };
            let per_task = claim + ms("bin.pert.run_ms") + ms("bin.pemodel.run_ms") + publish;
            // Workers idle at every stage barrier while the coordinator
            // decomposes, publishes and journals the stage's estimate.
            let stages = EnsembleSchedule::new(sc.initial, sc.max).stages().len() as f64;
            let per_stage = ms("core.subspace_full_ms")
                + ms("mtc.triple_buffer.publish_ms")
                + us("mtc.journal.append_us");
            let explained = ms("bin.pemodel.run_ms")
                + members * us("mtc.pool.seed_us")
                + chain * per_task
                + stages * per_stage;
            let formula = format!(
                "central pemodel + {members:.0} x seed + ceil({members:.0}/{WORKERS}) x \
                 (claim + pert + pemodel + publish = {per_task:.1} ms) + {stages:.0} stage(s) x \
                 (subspace_full + triple_buffer.publish + journal.append = {per_stage:.1} ms)"
            );
            (explained, formula)
        }
        Kind::Inproc => {
            // Two lanes run side by side; the longer one blocks. The SVD
            // lane's r-th of R rounds decomposes ~N·r/R members at
            // O(n·N²), so the rounds sum to full(N)·(R+1)(2R+1)/6R.
            let rounds = run.exact.svd_rounds as f64;
            let svd_lane = ms("core.subspace_full_ms") * (rounds + 1.0) * (2.0 * rounds + 1.0)
                / (6.0 * rounds.max(1.0));
            let worker_lane = chain * (us("core.perturb_us") + ms("ocean.forecast_ms"));
            let formula = format!(
                "max(svd lane: subspace_full(N) x (R+1)(2R+1)/6R with R={rounds:.0} = \
                 {svd_lane:.0} ms, worker lane: ceil({members:.0}/{WORKERS}) x (perturb + forecast) \
                 = {worker_lane:.0} ms)"
            );
            (svd_lane.max(worker_lane), formula)
        }
    };
    let explained_s = explained_ms / 1e3;
    put(m, "attrib.explained_frac", explained_s / ttc_s);
    put(m, "attrib.unexplained_s", ttc_s - explained_s);
    formula
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn span(lane: &str, cat: &str, start_ns: u64, end_ns: u64) -> LoadedSpan {
        LoadedSpan {
            lane: lane.into(),
            tid: 0,
            cat: cat.into(),
            name: cat.into(),
            start_ns,
            end_ns,
            args: BTreeMap::new(),
        }
    }

    #[test]
    fn task_self_time_subtracts_only_enclosed_phases_on_the_same_lane() {
        let spans = vec![
            span("worker-0", "task", 0, 100_000_000),
            span("worker-0", "phase", 10_000_000, 40_000_000),
            span("worker-0", "phase", 50_000_000, 60_000_000),
            span("worker-1", "phase", 0, 90_000_000), // other lane
            span("worker-0", "phase", 100_000_001, 120_000_000), // after the task
            span("worker-1", "task", 0, 50_000_000),
        ];
        // worker-0: 100 − 30 − 10 = 60 ms; worker-1's phase is not
        // enclosed (it outlasts the task): 50 ms. Mean 55 ms.
        assert!((task_self_ms(&spans) - 55.0).abs() < 1e-9);
        assert_eq!(task_self_ms(&[]), 0.0);
    }
}
