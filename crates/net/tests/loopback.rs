//! Loopback integration: a real [`NetServer`] over a real on-disk pool,
//! exercised through [`TcpTransport`] exactly as a remote worker would.

use esse_mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskPool, TaskSpec};
use esse_mtc::transport::{ClaimOutcome, DiskTransport, PoolTransport};
use esse_net::server::{NetMetrics, NetServer, ServerConfig, ENDPOINT_FILE};
use esse_net::{TcpConfig, TcpTransport};
use esse_obs::recorder::NULL;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn workdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esse-net-loop-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn manifest() -> PoolManifest {
    PoolManifest {
        domain: "monterey:6,5,4".into(),
        hours: 1.0,
        white_noise: 0.0,
        base_seed: 0x5EED,
        lease_ms: 600,
        config_hash: 0xFACADE,
        trace_run_id: 0,
    }
}

struct Fixture {
    dir: PathBuf,
    pool: TaskPool,
    server: NetServer,
}

fn start(tag: &str) -> Fixture {
    let dir = workdir(tag);
    fs::write(dir.join("mean.vec"), b"mean-bytes-for-staging").unwrap();
    fs::write(dir.join("prior.sub"), b"prior-bytes-for-staging").unwrap();
    let m = manifest();
    let pool = TaskPool::create(&dir, &m).unwrap();
    let server = NetServer::start(ServerConfig {
        pool: pool.clone(),
        manifest: m,
        workdir: dir.clone(),
        listen: "127.0.0.1:0".into(),
        generation: 1,
        metrics: NetMetrics::detached(),
        recorder: Arc::new(NULL),
    })
    .unwrap();
    Fixture { dir, pool, server }
}

fn connect(fx: &Fixture, worker_id: u64) -> TcpTransport {
    let mut cfg = TcpConfig::new(fx.server.local_addr().to_string(), worker_id);
    cfg.reconnect_grace = Duration::from_millis(400);
    TcpTransport::connect(cfg).unwrap()
}

#[test]
fn handshake_serves_manifest_and_stages_inputs() {
    let mut fx = start("hello");
    let t = connect(&fx, 1);
    assert_eq!(t.manifest().config_hash, 0xFACADE);
    assert_eq!(t.manifest().domain, "monterey:6,5,4");
    assert!(t.wants_payload());
    assert!(t.coordinator_alive());

    let scratch = workdir("hello-scratch");
    t.stage_inputs(&scratch).unwrap();
    assert_eq!(fs::read(scratch.join("mean.vec")).unwrap(), b"mean-bytes-for-staging");
    assert_eq!(fs::read(scratch.join("prior.sub")).unwrap(), b"prior-bytes-for-staging");

    let (addr, generation) = esse_net::read_endpoint(&fx.pool.root().join(ENDPOINT_FILE))
        .unwrap()
        .expect("endpoint file present");
    assert_eq!(addr, fx.server.local_addr().to_string());
    assert_eq!(generation, 1);
    fx.server.stop();
}

#[test]
fn staging_writes_the_coordinators_central_forecast_or_none() {
    let mut fx = start("central");
    let scratch = workdir("central-scratch");
    connect(&fx, 1).stage_inputs(&scratch).unwrap();
    assert!(!scratch.join("fc_central.vec").exists(), "none at the coordinator, none staged");

    fs::write(fx.dir.join("fc_central.vec"), b"central-forecast-bytes").unwrap();
    connect(&fx, 2).stage_inputs(&scratch).unwrap();
    let staged = fs::read(scratch.join("fc_central.vec")).expect("central forecast staged");
    assert_eq!(staged, fs::read(fx.dir.join("fc_central.vec")).unwrap());
    fx.server.stop();
}

#[test]
fn wrong_config_hash_is_rejected() {
    let mut fx = start("reject");
    let mut cfg = TcpConfig::new(fx.server.local_addr().to_string(), 9);
    cfg.config_hash = 0xBAD;
    let err = match TcpTransport::connect(cfg) {
        Err(e) => e,
        Ok(_) => panic!("handshake with a wrong config hash must fail"),
    };
    assert!(err.to_string().contains("config hash mismatch"), "got: {err}");
    fx.server.stop();
}

#[test]
fn coordinator_loss_exhausts_grace_and_declares_death() {
    let mut fx = start("orphan");
    let t = connect(&fx, 5);
    assert!(t.coordinator_alive());
    fx.server.stop();
    drop(fx.pool);

    // Connection threads drain at their next read-timeout tick; once
    // the socket drops, the request burns through the bounded reconnect
    // grace and the transport declares the coordinator dead.
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let err = loop {
        match t.claim_next() {
            Ok(_) => {
                assert!(std::time::Instant::now() < deadline, "server never went away");
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => break e,
        }
    };
    assert!(
        err.to_string().contains("reconnect grace") || err.kind() == std::io::ErrorKind::TimedOut,
        "got: {err}"
    );
    assert!(!t.coordinator_alive());

    // Every later call fails fast without a fresh grace period.
    assert!(t.run_state().is_err());
}

#[test]
fn two_workers_never_claim_the_same_task() {
    let mut fx = start("race");
    for m in 0..8u64 {
        fx.pool.seed(&TaskSpec { member: m, epoch: 1, seed: m, parent_span: 0 }).unwrap();
    }
    let a = connect(&fx, 10);
    let b = connect(&fx, 11);
    let mut seen = std::collections::BTreeSet::new();
    let (mut ta, mut tb) = (0, 0);
    loop {
        let mut idle = 0;
        for (t, n) in [(&a, &mut ta), (&b, &mut tb)] {
            match t.claim_next().unwrap() {
                ClaimOutcome::Task(spec) => {
                    assert!(seen.insert(spec.member), "member {} claimed twice", spec.member);
                    *n += 1;
                }
                ClaimOutcome::Idle => idle += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        if idle == 2 {
            break;
        }
    }
    assert_eq!(seen.len(), 8);
    assert!(ta > 0 && tb > 0, "both workers should claim ({ta}/{tb})");
    fx.server.stop();
}

/// Member 0's forecast: large enough to stream in several chunks.
fn payload() -> Vec<u8> {
    (0..600_000usize).map(|i| (i * 31 % 251) as u8).collect()
}

/// A worker's record of a good forecast of `member` under epoch 1.
fn rec(member: u64) -> ResultRecord {
    ResultRecord { member, epoch: 1, code: 0, pid: 7, fc_crc: 0xC0DE, reason: 0 }
}

/// One worker's op script over `pool` through `t`, with the
/// coordinator's requeue and tombstones in the middle; every reply.
fn op_script(pool: &TaskPool, t: &dyn PoolTransport) -> Vec<String> {
    let hb = |counter| Heartbeat { pid: 7, counter };
    for member in 0..2 {
        pool.seed(&TaskSpec { member, epoch: 1, seed: member, parent_span: 0 }).unwrap();
    }
    let mut replies = Vec::new();
    let mut say = |reply: String| replies.push(reply);
    let ClaimOutcome::Task(first) = t.claim_next().unwrap() else { panic!("member 0 unclaimed") };
    say(format!("{first:?}"));
    say(format!("{:?}", t.renew_lease(&first, &hb(1)).unwrap()));
    say(format!("{:?}", t.publish(&rec(0), Some(&payload())).unwrap()));
    t.release(&first).unwrap();

    let ClaimOutcome::Task(second) = t.claim_next().unwrap() else { panic!("member 1 unclaimed") };
    say(format!("{second:?}"));
    // The coordinator requeues the member under the next epoch.
    pool.remove_claim(&second).unwrap();
    pool.seed(&TaskSpec { epoch: second.epoch + 1, ..second }).unwrap();
    say(format!("{:?}", t.renew_lease(&second, &hb(2)).unwrap()));
    say(format!("{:?}", t.publish(&rec(1), Some(b"stale forecast")).unwrap()));
    t.release(&second).unwrap();

    pool.write_cancel().unwrap();
    say(format!("{:?} {:?}", t.claim_next().unwrap(), t.run_state().unwrap()));
    pool.write_shutdown().unwrap();
    say(format!("{:?} {:?}", t.claim_next().unwrap(), t.run_state().unwrap()));
    replies
}

/// Every file and directory under `dir` (recursively) whose top-level
/// name `keep` accepts, with its bytes.
fn tree(dir: &Path, keep: &dyn Fn(&str) -> bool) -> BTreeMap<String, Vec<u8>> {
    let (mut out, mut todo) = (BTreeMap::new(), vec![(dir.to_path_buf(), String::new())]);
    while let Some((at, prefix)) = todo.pop() {
        for entry in fs::read_dir(&at).unwrap().map(Result::unwrap) {
            let name = entry.file_name().into_string().unwrap();
            if prefix.is_empty() && !keep(&name) {
                continue;
            }
            let rel = format!("{prefix}{name}");
            if entry.file_type().unwrap().is_dir() {
                todo.push((entry.path(), format!("{rel}/")));
                out.insert(rel + "/", Vec::new());
            } else {
                out.insert(rel, fs::read(entry.path()).unwrap());
            }
        }
    }
    out
}

/// Run `script` once through a `DiskTransport` and once through a
/// `TcpTransport` talking to a `NetServer`, each over its own pool:
/// the replies and workdir of each.
fn through_both(
    tag: &str,
    script: fn(&TaskPool, &dyn PoolTransport) -> Vec<String>,
) -> [(Vec<String>, PathBuf); 2] {
    let disk_dir = workdir(&format!("{tag}-disk"));
    let disk_pool = TaskPool::create(&disk_dir, &manifest()).unwrap();
    let disk = DiskTransport::new(disk_pool.clone(), manifest(), None);
    let disk_replies = script(&disk_pool, &disk);

    let mut fx = start(&format!("{tag}-tcp"));
    let tcp_replies = script(&fx.pool, &connect(&fx, 1));
    fx.server.stop();
    [(disk_replies, disk_dir), (tcp_replies, fx.dir)]
}

/// Seed 64 tasks and drain them: claim, publish a 65,536-byte forecast
/// and release each, until the pool answers `Idle`.
fn drain_script(pool: &TaskPool, t: &dyn PoolTransport) -> Vec<String> {
    for member in 0..64 {
        pool.seed(&TaskSpec { member, epoch: 1, seed: member, parent_span: 0 }).unwrap();
    }
    let mut replies = Vec::new();
    while let ClaimOutcome::Task(spec) = t.claim_next().unwrap() {
        let forecast = vec![spec.member as u8; 65_536];
        replies.push(format!("{:?}", t.publish(&rec(spec.member), Some(&forecast)).unwrap()));
        t.release(&spec).unwrap();
    }
    replies
}

/// Two scripts through both transports, each over its own pool: the
/// same replies, the same files under `pool/` and the same staged
/// forecasts.
/// - The claim, renew, publish, release, requeue and tombstone flow.
///   After the requeue both answer `Fenced`, stage nothing and still
///   publish the record for the coordinator's epoch check.
/// - A drain of 64 seeded tasks with 65,536-byte forecasts: exactly 64
///   grants and 64 staged `fc_N.vec` per transport.
#[test]
fn disk_and_tcp_transports_answer_one_script_alike() {
    let pool_files = |dir: &Path| tree(&dir.join("pool"), &|name| name != ENDPOINT_FILE);
    let staged = |dir: &Path| tree(dir, &|name| name.starts_with("fc_"));
    let [(disk_replies, disk_dir), (tcp_replies, tcp_dir)] = through_both("script", op_script);
    assert_eq!(disk_replies, tcp_replies, "the transports answered differently");
    assert_eq!(disk_replies[1..3], ["Ok", "Ok"], "{disk_replies:?}");
    assert_eq!(disk_replies[4..6], ["Fenced", "Fenced"], "{disk_replies:?}");
    assert_eq!(
        disk_replies[6..],
        [
            "Cancelled RunState { cancelled: true, shutdown: false }",
            "Shutdown RunState { cancelled: true, shutdown: true }"
        ]
    );
    let files = pool_files(&disk_dir);
    assert_eq!(files, pool_files(&tcp_dir), "the pools differ");
    let results: Vec<&String> = files.keys().filter(|k| k.starts_with("results/r")).collect();
    assert_eq!(results, ["results/r000000.e00001", "results/r000001.e00001"]);
    assert!(files.keys().all(|k| !k.starts_with("claimed/t")), "a claim outlived its release");
    assert_eq!(staged(&disk_dir), staged(&tcp_dir), "the staged forecasts differ");
    assert_eq!(staged(&disk_dir), BTreeMap::from([("fc_0.vec".to_string(), payload())]));

    let [(disk_replies, disk_dir), (tcp_replies, tcp_dir)] = through_both("drain", drain_script);
    assert_eq!(disk_replies, tcp_replies, "the transports drained differently");
    assert_eq!(disk_replies.len(), 64, "one grant per seeded task");
    assert!(disk_replies.iter().all(|r| r == "Ok"), "{disk_replies:?}");
    assert_eq!(pool_files(&disk_dir), pool_files(&tcp_dir), "the drained pools differ");
    let forecasts = staged(&disk_dir);
    assert_eq!(forecasts, staged(&tcp_dir), "the staged forecasts differ");
    assert_eq!(forecasts.len(), 64, "{:?}", forecasts.keys());
    assert!(forecasts.values().all(|fc| fc.len() == 65_536), "a forecast lost bytes");
}
