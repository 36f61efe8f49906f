//! The benchmark's declaration: every metric by name, unit and
//! direction, and the regression bound of each end-to-end metric. The
//! root `BENCHMARK.json` is this table rendered (`perf --declare`); the
//! smoke test keeps the two equal.

use crate::workloads::WORKLOADS;
use esse_obs::json::{push_f64, push_str_literal};

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median it may worsen by.
    pub bound: f64,
}

/// A single layer's metric. Never gated.
pub struct PerLayer {
    /// Metric name, `<layer>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u32 = 20;

/// End-to-end metrics, the same on every workload. The bounds come from
/// the seed-to-seed spread (interquartile distance over the median of
/// ten runs) seen on the reference box. `ttc_s` is within 1 % on the
/// three fleet workloads but 3–8 % on `inproc_wide`, whose 5.5 MB spread
/// matrix lives in the host's shared L3 and whose median drifts by a few
/// percent over minutes; `cpu_s_per_member` spreads 8–9 % on
/// `manytask_*`, where 0.6 CPU-seconds are spread over ~150 short
/// processes.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "ttc_s", unit: "s", better: "lower", bound: 0.15 },
    EndToEnd { name: "members_per_s", unit: "1/s", better: "higher", bound: 0.15 },
    EndToEnd { name: "cpu_s_per_member", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, grouped by the module they time.
pub const PER_LAYER: [PerLayer; 71] = [
    // esse-ocean
    layer("ocean.step_us", "us", "lower"),
    layer("ocean.forecast_ms", "ms", "lower"),
    layer("ocean.cell_updates_per_s", "1/s", "higher"),
    // esse-core
    layer("core.perturb_us", "us", "lower"),
    layer("core.validate_us", "us", "lower"),
    layer("core.spread_add_us", "us", "lower"),
    layer("core.subspace_full_ms", "ms", "lower"),
    layer("core.subspace_inc_fold_ms", "ms", "lower"),
    layer("core.subspace_inc_refresh_ms", "ms", "lower"),
    layer("core.similarity_us", "us", "lower"),
    // esse-linalg
    layer("linalg.gram_ms", "ms", "lower"),
    layer("linalg.gram_gflops", "gflop/s", "higher"),
    layer("linalg.symeig_ms", "ms", "lower"),
    layer("linalg.gemm_ms", "ms", "lower"),
    layer("linalg.qr_ms", "ms", "lower"),
    layer("linalg.svd_ms", "ms", "lower"),
    layer("linalg.serial_ratio", "ratio", "higher"),
    // esse::fileio
    layer("fileio.write_vector_us", "us", "lower"),
    layer("fileio.read_vector_us", "us", "lower"),
    layer("fileio.vector_bytes", "B", "lower"),
    layer("fileio.write_subspace_ms", "ms", "lower"),
    layer("fileio.read_subspace_ms", "ms", "lower"),
    // esse-mtc::pool / transport
    layer("mtc.pool.seed_us", "us", "lower"),
    layer("mtc.pool.claim_us", "us", "lower"),
    layer("mtc.pool.publish_us", "us", "lower"),
    layer("mtc.pool.renew_us", "us", "lower"),
    layer("mtc.pool.scan_us", "us", "lower"),
    // esse-mtc::journal / triple_buffer
    layer("mtc.journal.append_us", "us", "lower"),
    layer("mtc.journal.replay_ms", "ms", "lower"),
    layer("mtc.journal.encode_subspace_ms", "ms", "lower"),
    layer("mtc.triple_buffer.publish_ms", "ms", "lower"),
    // esse-net
    layer("net.frame_encode_mb_s", "MB/s", "higher"),
    layer("net.frame_decode_mb_s", "MB/s", "higher"),
    layer("net.msg_codec_us", "us", "lower"),
    layer("net.claim_us", "us", "lower"),
    layer("net.publish_us", "us", "lower"),
    layer("net.stage_ms", "ms", "lower"),
    layer("net.bytes_per_member", "B", "lower"),
    // esse-obs
    layer("obs.span_ns", "ns", "lower"),
    layer("obs.trace_overhead_frac", "ratio", "lower"),
    // bins
    layer("bin.pert.run_ms", "ms", "lower"),
    layer("bin.pemodel.run_ms", "ms", "lower"),
    layer("bin.member_tax_ms", "ms", "lower"),
    layer("bin.esse_master.cpu_s", "s", "lower"),
    layer("bin.esse_master.busy_frac", "ratio", "lower"),
    layer("bin.esse_master.peak_rss_mb", "MB", "lower"),
    layer("bin.esse_worker.cpu_s", "s", "lower"),
    layer("bin.esse_worker.task_ms", "ms", "lower"),
    layer("bin.esse_worker.task_unattributed_ms", "ms", "lower"),
    layer("bin.esse_worker.util_frac", "ratio", "higher"),
    // esse-mtc::workflow (in-process run)
    layer("mtc.workflow.svd_rounds", "count", "lower"),
    layer("mtc.workflow.svd_busy_s", "s", "lower"),
    layer("mtc.workflow.worker_util_frac", "ratio", "higher"),
    // counts: the first four repeat exactly at a fixed seed
    layer("count.members_ingested", "count", "higher"),
    layer("count.svd_rounds", "count", "lower"),
    layer("count.journal_records", "count", "lower"),
    layer("count.leases_expired", "count", "lower"),
    layer("count.leases_granted", "count", "lower"),
    layer("count.leases_renewed", "count", "lower"),
    layer("count.journal_bytes", "B", "lower"),
    layer("count.workdir_bytes", "B", "lower"),
    // the run's own trace
    layer("trace.phase_claim_ms", "ms", "lower"),
    layer("trace.phase_pert_ms", "ms", "lower"),
    layer("trace.phase_pemodel_ms", "ms", "lower"),
    layer("trace.phase_publish_ms", "ms", "lower"),
    layer("trace.enqueue_to_claim_ms", "ms", "lower"),
    layer("trace.publish_to_ingest_ms", "ms", "lower"),
    layer("trace.critpath_busy_ms", "ms", "lower"),
    layer("trace.critpath_wait_ms", "ms", "lower"),
    // does the ledger add up?
    layer("attrib.explained_frac", "ratio", "higher"),
    layer("attrib.unexplained_s", "s", "lower"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"crates/perf/bench.sh\"],\n");
    out.push_str("  \"paths\": [\"crates/perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"));
    let pair = |out: &mut String, key: &str, value: &str, last: bool| {
        push_str_literal(out, key);
        out.push_str(": ");
        push_str_literal(out, value);
        out.push_str(if last { "" } else { ", " });
    };
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str("    {");
        pair(&mut out, "name", w.name, false);
        pair(&mut out, "why", w.why, true);
        out.push_str(if i + 1 < WORKLOADS.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str("    {");
        pair(&mut out, "name", m.name, false);
        pair(&mut out, "unit", m.unit, false);
        pair(&mut out, "better", m.better, false);
        out.push_str("\"bound\": ");
        push_f64(&mut out, m.bound);
        out.push_str(if i + 1 < END_TO_END.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str("    {");
        pair(&mut out, "name", m.name, false);
        pair(&mut out, "unit", m.unit, false);
        pair(&mut out, "better", m.better, true);
        out.push_str(if i + 1 < PER_LAYER.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_respects_the_contract_limits() {
        let ok = |s: &str, extra: &str| {
            s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for (i, n) in names.iter().enumerate() {
            assert!(n.len() <= 64 && ok(n, "_.-") && n.as_bytes()[0].is_ascii_alphanumeric());
            assert!(!names[..i].contains(n), "name {n} is used twice");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(!u.is_empty() && u.len() <= 16 && ok(u, "_/%.-"), "unit {u}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.iter().all(|m| matches!(m.better, "lower" | "higher")));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        esse_obs::json::validate(&benchmark_json()).expect("BENCHMARK.json is JSON");
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
