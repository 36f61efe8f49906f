//! End-to-end distributed-tracing integration over the on-disk pool:
//! trace context propagated through pool records, worker span batches
//! shipped as CRC-framed sidecars, clock-offset estimation from the
//! coordinator's own pool instants, and a merged timeline that
//! `esse_obs::analyze` reconstructs into a fleet DAG with cross-process
//! edges — all in-process, no subprocesses.

use esse_mtc::pool::{PoolManifest, TaskPool, TaskSpec};
use esse_obs::fleet::{self, SpanBatch};
use esse_obs::{export, ArgValue, Lane, LoadedTrace, RecorderExt, RingRecorder};
use std::path::PathBuf;

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-fleettrace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create workdir");
    d
}

fn manifest(trace_run_id: u64) -> PoolManifest {
    PoolManifest {
        domain: "monterey:6,5,4".into(),
        hours: 2.0,
        white_noise: 0.05,
        base_seed: 42,
        lease_ms: 400,
        config_hash: 0xC0FFEE,
        trace_run_id,
    }
}

/// Record one worker's task on its *own* clock: a `task/task` span
/// carrying the propagated context, wrapping the five phase spans the
/// real `esse_worker` emits. `shift(t)` maps the nominal coordinator
/// time onto the worker clock (the true skew the merge must undo).
fn record_worker_task(
    ring: &RingRecorder,
    lane: Lane,
    run: u64,
    worker: u32,
    member: u64,
    parent: u64,
    shift: impl Fn(u64) -> u64,
) {
    let args = vec![
        ("member", ArgValue::U64(member)),
        ("epoch", ArgValue::U64(1)),
        ("parent", ArgValue::U64(parent)),
        ("run", ArgValue::U64(run)),
        ("worker", ArgValue::U64(worker as u64)),
    ];
    ring.begin_at(shift(20_000), lane, "task", "task", args);
    for (name, b, e) in [
        ("claim", 20_000, 30_000),
        ("stage", 30_000, 60_000),
        ("pert", 60_000, 100_000),
        ("pemodel", 100_000, 380_000),
        ("publish", 380_000, 400_000),
    ] {
        ring.begin_at(shift(b), lane, "phase", name, Vec::new());
        ring.end_at(shift(e), lane, "phase", name);
    }
    ring.end_at(shift(400_000), lane, "task", "task");
}

#[test]
fn disk_sidecars_merge_into_a_fleet_dag_with_cross_process_edges() {
    let dir = workdir("merge");
    let run = fleet::run_id(0xC0FFEE, 42);
    let pool = TaskPool::create(&dir, &manifest(run)).expect("create pool");

    // Coordinator side: seed/grant/ingest instants for two members,
    // exactly the vocabulary `esse_master` emits.
    let coord = RingRecorder::new();
    let true_offset: [i64; 2] = [7_000, -3_000]; // coord = worker + offset
    for m in 0..2u64 {
        let span = fleet::span_id(run, m, 1);
        coord.instant_at(
            1_000 + m * 100,
            Lane::Coordinator,
            "pool",
            "task_seeded",
            vec![
                ("member", ArgValue::U64(m)),
                ("epoch", ArgValue::U64(1)),
                ("span", ArgValue::U64(span)),
            ],
        );
        coord.instant_at(
            35_000 + m * 100,
            Lane::Coordinator,
            "pool",
            "lease_granted",
            vec![("member", ArgValue::U64(m)), ("epoch", ArgValue::U64(1))],
        );
        coord.instant_at(
            500_000 + m * 100,
            Lane::Coordinator,
            "pool",
            "result_ingested",
            vec![("member", ArgValue::U64(m)), ("epoch", ArgValue::U64(1))],
        );
    }

    // Worker side: each worker runs one member on its own skewed clock
    // and ships the drained batch as a sidecar next to the result.
    for w in 0..2u32 {
        let m = w as u64;
        let off = true_offset[w as usize];
        let ring = RingRecorder::new();
        record_worker_task(&ring, Lane::Worker(w), run, w, m, fleet::span_id(run, m, 1), |t| {
            (t as i64 - off) as u64
        });
        let batch = SpanBatch::from_trace(run, w, m, 1, false, &ring.drain());
        pool.write_trace_sidecar(&batch.file_name(), &batch.encode()).expect("ship sidecar");
    }

    // Coordinator wind-down: collect every sidecar, decode, merge.
    let paths = pool.trace_sidecars().expect("scan sidecars");
    assert_eq!(paths.len(), 2, "one sidecar per member");
    let batches: Vec<SpanBatch> = paths
        .iter()
        .map(|p| SpanBatch::decode(&std::fs::read(p).unwrap()).expect("decode shipped batch"))
        .collect();
    assert!(batches.iter().all(|b| b.run_id == run));
    let mut trace = coord.drain();
    let report = fleet::merge_batches(&mut trace, &batches);
    assert_eq!(report.workers.len(), 2);
    assert_eq!(report.spans_merged, 12, "two workers x (task + 5 phases)");
    for wm in &report.workers {
        assert!(wm.bounded, "worker {} offset unbounded", wm.worker_id);
        assert!(wm.consistent, "worker {} constraints contradictory", wm.worker_id);
        let truth = true_offset[wm.worker_id as usize] as i128;
        let err = (wm.offset_ns - truth).unsigned_abs();
        assert!(
            err <= wm.uncertainty_ns as u128,
            "worker {}: estimated offset {} vs true {truth} exceeds uncertainty {}",
            wm.worker_id,
            wm.offset_ns,
            wm.uncertainty_ns
        );
    }
    trace.check_well_formed().expect("merged trace stays well-formed");

    // Round-trip through the exporter and reconstruct the fleet DAG.
    let loaded = LoadedTrace::from_jsonl(&export::jsonl_string(&trace)).expect("parse merged");
    let a = loaded.analyze();
    assert!(a.fleet.any(), "fleet section present after merge");
    assert_eq!(a.fleet.workers.len(), 2);
    assert_eq!(a.fleet.remote_tasks, 2);
    assert_eq!(a.fleet.orphan_edges, 0, "every remote task matches its seeded span");
    assert!(a.critical_path_crosses_fleet(), "critical path runs through worker phases");
    let claim = a.fleet.enqueue_to_claim.as_ref().expect("enqueue->claim edges");
    let ingest = a.fleet.publish_to_ingest.as_ref().expect("publish->ingest edges");
    assert_eq!(claim.count, 2);
    assert_eq!(ingest.count, 2);
    for w in &a.fleet.workers {
        assert!(w.constrained, "worker {} offset should be two-sided", w.worker);
        assert!(w.utilization() > 0.0);
        assert!(w.phases.iter().any(|p| p.key == "phase/pemodel"));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_sidecars_are_rejected_whole_and_never_poison_the_merge() {
    let dir = workdir("corrupt");
    let run = fleet::run_id(0xC0FFEE, 42);
    let pool = TaskPool::create(&dir, &manifest(run)).expect("create pool");

    let coord = RingRecorder::new();
    coord.instant_at(
        1_000,
        Lane::Coordinator,
        "pool",
        "task_seeded",
        vec![
            ("member", ArgValue::U64(0)),
            ("epoch", ArgValue::U64(1)),
            ("span", ArgValue::U64(fleet::span_id(run, 0, 1))),
        ],
    );
    coord.instant_at(
        500_000,
        Lane::Coordinator,
        "pool",
        "result_ingested",
        vec![("member", ArgValue::U64(0)), ("epoch", ArgValue::U64(1))],
    );

    let ring = RingRecorder::new();
    record_worker_task(&ring, Lane::Worker(0), run, 0, 0, fleet::span_id(run, 0, 1), |t| t);
    let good = SpanBatch::from_trace(run, 0, 0, 1, false, &ring.drain());
    let bytes = good.encode();
    pool.write_trace_sidecar(&good.file_name(), &bytes).expect("good sidecar");

    // A truncated ship (worker died mid-write) and a bit-flipped one.
    pool.write_trace_sidecar("r000001.e00001.trace", &bytes[..bytes.len() / 2])
        .expect("truncated sidecar");
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    pool.write_trace_sidecar("r000002.e00001.trace", &flipped).expect("flipped sidecar");

    // The collector decodes what it can and drops corrupt batches whole.
    assert_eq!(pool.trace_sidecars().expect("scan sidecars").len(), 3);
    let (ok, dropped) = pool.span_batches(run);
    assert_eq!(ok, vec![good], "exactly the uncorrupted batch survives: {dropped:?}");
    assert_eq!(dropped.len(), 2);
    assert!(pool.span_batches(run + 1).0.is_empty(), "another run's batch never merges");

    let mut trace = coord.drain();
    fleet::merge_batches(&mut trace, &ok);
    trace.check_well_formed().expect("merge of the surviving batch is well-formed");
    let a = LoadedTrace::from_jsonl(&export::jsonl_string(&trace)).expect("parse").analyze();
    assert_eq!(a.fleet.workers.len(), 1);
    assert_eq!(a.fleet.remote_tasks, 1);
    assert_eq!(a.fleet.orphan_edges, 0, "dropped batches must not manufacture orphans");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_context_rides_pool_records_end_to_end() {
    let dir = workdir("context");
    let run = fleet::run_id(0xC0FFEE, 42);
    {
        let pool = TaskPool::create(&dir, &manifest(run)).expect("create pool");
        let spec =
            TaskSpec { member: 3, epoch: 1, seed: 0xDEAD, parent_span: fleet::span_id(run, 3, 1) };
        pool.seed(&spec).expect("seed task");
    }
    // A worker re-opening the pool sees the run id in the manifest and
    // the parent span in the claimed record — the full trace context
    // crosses the process boundary through the filesystem alone.
    let (pool, m) = TaskPool::open(&dir).expect("open pool");
    assert_eq!(m.trace_run_id, run);
    let claimed = pool.try_claim("t000003.e00001").expect("claim io").expect("task claimable");
    assert_eq!(claimed.parent_span, fleet::span_id(run, 3, 1));
    assert_ne!(claimed.parent_span, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
