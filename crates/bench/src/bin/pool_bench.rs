//! Micro-benchmark of the two [`PoolTransport`] implementations: how
//! fast can a worker claim a task and publish its result over the
//! shared filesystem versus over the esse-net TCP protocol on
//! loopback?
//!
//! Each transport runs the same workload against its own fresh pool:
//! `--tasks` seeded members, one claim + one forecast-payload publish
//! per member (`--payload` bytes, streamed in DATA chunks over TCP and
//! staged into the workdir by `DiskTransport` on both). Every operation is
//! recorded as a span on a [`RingRecorder`], so the emitted trace
//! drops straight into `trace_report`:
//!
//! ```text
//! pool_bench [--tasks N] [--payload BYTES] [--trace-out PATH]
//! trace_report pool_bench.trace.jsonl \
//!     --baseline BENCH_baseline.json --baseline-prefix pool_bench_ \
//!     --assert-max-regression 25
//! ```
//!
//! Only structural counters (`pool_bench_*_ops`, payload size) are
//! pinned in `BENCH_baseline.json`; the latency percentiles are
//! machine-dependent and are reported as trace counters for
//! `--write-baseline` on a pinned host, following the fault_sweep
//! precedent.

use esse_core::durable::crc32;
use esse_mtc::pool::{PoolManifest, ResultRecord, TaskPool, TaskSpec};
use esse_mtc::rundir;
use esse_mtc::transport::{ClaimOutcome, DiskTransport, PoolTransport};
use esse_net::server::{NetMetrics, NetServer, ServerConfig};
use esse_net::{TcpConfig, TcpTransport};
use esse_obs::event::Lane;
use esse_obs::export::save;
use esse_obs::recorder::{Recorder, RecorderExt, NULL};
use esse_obs::ring::RingRecorder;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn manifest() -> PoolManifest {
    PoolManifest {
        domain: "monterey:6,5,4".into(),
        hours: 1.0,
        white_noise: 0.0,
        base_seed: 0x5EED,
        lease_ms: 60_000,
        config_hash: 0xBE4C,
        trace_run_id: 0,
    }
}

fn fresh_pool(tag: &str, tasks: u64) -> (PathBuf, TaskPool) {
    let dir = std::env::temp_dir().join(format!("esse-pool-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench workdir");
    std::fs::write(dir.join(rundir::MEAN), b"pool-bench mean").expect("write mean");
    std::fs::write(dir.join(rundir::PRIOR), b"pool-bench prior").expect("write prior");
    let pool = TaskPool::create(&dir, &manifest()).expect("create pool");
    for member in 0..tasks {
        pool.seed(&TaskSpec { member, epoch: 1, seed: member ^ 0x5EED, parent_span: 0 })
            .expect("seed task");
    }
    (dir, pool)
}

/// One claim → publish round per seeded task, spans recorded under
/// `{label}_claim` / `{label}_publish`. Returns (claim, publish)
/// latencies in nanoseconds.
#[allow(clippy::type_complexity)]
fn drive(
    transport: &dyn PoolTransport,
    payload: &[u8],
    rec: &RingRecorder,
    lane: Lane,
    names: (&'static str, &'static str),
) -> (Vec<u64>, Vec<u64>) {
    let (claim_name, publish_name) = names;
    let mut claims = Vec::new();
    let mut publishes = Vec::new();
    loop {
        let t0 = Instant::now();
        let outcome = {
            let _g = rec.span(lane, "bench", claim_name, Vec::new());
            transport.claim_next().expect("claim")
        };
        let spec = match outcome {
            ClaimOutcome::Task(spec) => spec,
            ClaimOutcome::Idle | ClaimOutcome::Cancelled | ClaimOutcome::Shutdown => break,
        };
        claims.push(t0.elapsed().as_nanos() as u64);

        let record = ResultRecord {
            member: spec.member,
            epoch: spec.epoch,
            code: 0,
            pid: std::process::id(),
            fc_crc: crc32(payload),
            reason: 0,
        };
        let t0 = Instant::now();
        {
            let _g = rec.span(lane, "bench", publish_name, Vec::new());
            // Both stage the forecast, then publish the record.
            transport.publish(&record, Some(payload)).expect("publish");
            transport.release(&spec).expect("release claim");
        }
        publishes.push(t0.elapsed().as_nanos() as u64);
    }
    (claims, publishes)
}

fn percentile_us(samples: &mut [u64], p: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let idx = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[idx] as f64 / 1e3
}

fn report(rec: &RingRecorder, label: &str, claims: &mut [u64], publishes: &mut [u64]) {
    let stats = [("claim", claims), ("publish", publishes)];
    for (op, samples) in stats {
        let (p50, p95) = (percentile_us(samples, 50.0), percentile_us(samples, 95.0));
        println!(
            "{label:<4} {op:<7}: {:>5} ops, p50 {p50:>9.1} us, p95 {p95:>9.1} us",
            samples.len()
        );
        // &'static counter names, so enumerate the four combinations.
        let (n50, n95) = match (label, op) {
            ("disk", "claim") => ("pool_bench_disk_claim_p50_us", "pool_bench_disk_claim_p95_us"),
            ("disk", "publish") => {
                ("pool_bench_disk_publish_p50_us", "pool_bench_disk_publish_p95_us")
            }
            ("tcp", "claim") => ("pool_bench_tcp_claim_p50_us", "pool_bench_tcp_claim_p95_us"),
            _ => ("pool_bench_tcp_publish_p50_us", "pool_bench_tcp_publish_p95_us"),
        };
        rec.counter_at(rec.now_ns(), Lane::Driver, n50, p50);
        rec.counter_at(rec.now_ns(), Lane::Driver, n95, p95);
    }
}

fn main() {
    let mut tasks: u64 = 64;
    let mut payload_len: usize = 64 * 1024;
    let mut trace_out: Option<PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--tasks" => tasks = argv.next().and_then(|v| v.parse().ok()).expect("--tasks N"),
            "--payload" => {
                payload_len = argv.next().and_then(|v| v.parse().ok()).expect("--payload BYTES")
            }
            "--trace-out" => trace_out = Some(PathBuf::from(argv.next().expect("--trace-out P"))),
            other => {
                eprintln!("unknown arg {other}; usage: pool_bench [--tasks N] [--payload BYTES] [--trace-out PATH]");
                std::process::exit(2);
            }
        }
    }
    let payload: Vec<u8> = (0..payload_len).map(|i| (i * 131) as u8).collect();
    let rec = RingRecorder::new();

    // Disk transport: claims and publishes are filesystem renames.
    let (disk_dir, disk_pool) = fresh_pool("disk", tasks);
    let disk = DiskTransport::new(disk_pool, manifest(), None);
    let (mut d_claims, mut d_publishes) =
        drive(&disk, &payload, &rec, Lane::Worker(0), ("disk_claim", "disk_publish"));

    // TCP transport: the same ops proxied through a loopback NetServer.
    let (tcp_dir, tcp_pool) = fresh_pool("tcp", tasks);
    let mut server = NetServer::start(ServerConfig {
        pool: tcp_pool,
        manifest: manifest(),
        workdir: tcp_dir.clone(),
        listen: "127.0.0.1:0".into(),
        generation: 1,
        metrics: NetMetrics::detached(),
        recorder: Arc::new(NULL),
    })
    .expect("start loopback server");
    let tcp = TcpTransport::connect(TcpConfig::new(server.local_addr().to_string(), 0))
        .expect("connect loopback transport");
    let (mut t_claims, mut t_publishes) =
        drive(&tcp, &payload, &rec, Lane::Worker(1), ("tcp_claim", "tcp_publish"));
    server.stop();

    println!("pool_bench: {tasks} tasks/transport, {payload_len} B forecast payload, loopback TCP");
    report(&rec, "disk", &mut d_claims, &mut d_publishes);
    report(&rec, "tcp", &mut t_claims, &mut t_publishes);

    // Structural counters — the only metrics pinned in the committed
    // baseline, everything above is hardware.
    rec.counter_at(rec.now_ns(), Lane::Driver, "pool_bench_disk_ops", d_claims.len() as f64);
    rec.counter_at(rec.now_ns(), Lane::Driver, "pool_bench_tcp_ops", t_claims.len() as f64);
    rec.counter_at(rec.now_ns(), Lane::Driver, "pool_bench_payload_bytes", payload_len as f64);

    assert_eq!(d_claims.len() as u64, tasks, "disk transport drained every seeded task");
    assert_eq!(t_claims.len() as u64, tasks, "tcp transport drained every seeded task");

    if let Some(path) = &trace_out {
        save(&rec.drain(), path).expect("write trace");
        println!("trace -> {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
    let _ = std::fs::remove_dir_all(&tcp_dir);
}
