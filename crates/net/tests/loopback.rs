//! Loopback integration: a real [`NetServer`] over a real on-disk pool,
//! exercised through [`TcpTransport`] exactly as a remote worker would.

use esse_mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskPool, TaskSpec};
use esse_mtc::transport::{ClaimOutcome, PoolTransport, RenewAck};
use esse_net::server::{NetMetrics, NetServer, ServerConfig, ENDPOINT_FILE};
use esse_net::{TcpConfig, TcpTransport};
use esse_obs::recorder::NULL;
use std::fs;
use std::path::PathBuf;
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

fn claimed_path(fx: &Fixture, spec: &TaskSpec) -> PathBuf {
    fx.pool.root().join("claimed").join(spec.file_name())
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
fn claim_renew_publish_release_full_task_lifecycle() {
    let mut fx = start("lifecycle");
    let spec = TaskSpec { member: 0, epoch: 1, seed: 42, parent_span: 0 };
    fx.pool.seed(&spec).unwrap();

    let t = connect(&fx, 2);
    let ClaimOutcome::Task(claimed) = t.claim_next().unwrap() else { panic!("no task") };
    assert_eq!(claimed, spec);
    assert_eq!(t.claim_next().unwrap(), ClaimOutcome::Idle);

    assert_eq!(t.renew_lease(&claimed, &Heartbeat { pid: 7, counter: 1 }).unwrap(), RenewAck::Ok);

    // Payload large enough to exercise multi-chunk streaming.
    let payload: Vec<u8> = (0..600_000usize).map(|i| (i * 31 % 251) as u8).collect();
    let rec = ResultRecord { member: 0, epoch: 1, code: 0, pid: 7, fc_crc: 0xABCD, reason: 0 };
    assert_eq!(t.publish(&rec, Some(&payload)).unwrap(), RenewAck::Ok);
    t.release(&claimed).unwrap();

    // Forecast bytes were staged into the coordinator workdir verbatim.
    assert_eq!(fs::read(fx.dir.join("fc_0.vec")).unwrap(), payload);
    let scan = fx.pool.scan().unwrap();
    assert_eq!(scan.results, vec![rec]);
    assert!(scan.claims.is_empty());
    fx.server.stop();
}

#[test]
fn tombstones_surface_through_claim_and_query() {
    let mut fx = start("tomb");
    let t = connect(&fx, 3);
    assert_eq!(t.claim_next().unwrap(), ClaimOutcome::Idle);

    fx.pool.write_cancel().unwrap();
    assert_eq!(t.claim_next().unwrap(), ClaimOutcome::Cancelled);
    assert!(t.run_state().unwrap().cancelled);

    fx.pool.write_shutdown().unwrap();
    assert_eq!(t.claim_next().unwrap(), ClaimOutcome::Shutdown);
    assert!(t.run_state().unwrap().shutdown);
    fx.server.stop();
}

#[test]
fn fenced_claim_gets_advisory_fenced_and_record_still_publishes() {
    let mut fx = start("fence");
    let spec = TaskSpec { member: 4, epoch: 1, seed: 9, parent_span: 0 };
    fx.pool.seed(&spec).unwrap();

    let t = connect(&fx, 4);
    let ClaimOutcome::Task(claimed) = t.claim_next().unwrap() else { panic!("no task") };

    // Coordinator requeues the member under a higher epoch (the lease
    // watchdog path): the claim file disappears.
    fx.pool.remove_claim(&claimed).unwrap();
    assert!(!claimed_path(&fx, &claimed).exists());

    // Renewals now come back fenced.
    assert_eq!(
        t.renew_lease(&claimed, &Heartbeat { pid: 7, counter: 2 }).unwrap(),
        RenewAck::Fenced
    );

    // The zombie's late result: advisory Fenced, forecast NOT staged,
    // but the record still lands in results/ for the coordinator's
    // authoritative epoch check to reject.
    let rec = ResultRecord { member: 4, epoch: 1, code: 0, pid: 7, fc_crc: 1, reason: 0 };
    assert_eq!(t.publish(&rec, Some(b"stale-forecast")).unwrap(), RenewAck::Fenced);
    assert!(!fx.dir.join("fc_4.vec").exists(), "stale forecast must not be staged");
    assert_eq!(fx.pool.scan().unwrap().results, vec![rec]);
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
