//! Coordinator-side listener: proxies remote workers onto the on-disk
//! pool.
//!
//! Each accepted connection gets a thread that executes pool operations
//! *on the coordinator's local filesystem* on behalf of its remote
//! worker. That proxy design is what preserves the pool invariants with
//! zero changes to the master loop:
//!
//! * a remote `Claim` performs the same `pending/ → claimed/` atomic
//!   rename a local worker performs, so local and remote claimers are
//!   arbitrated by one mechanism and exactly one wins;
//! * a remote `Renew` writes the same heartbeat file, and expiry is
//!   still judged by the master's [`LeaseWatch`] on the master's clock;
//! * a remote result stream stages the forecast bytes into the workdir
//!   *before* publishing the result record — the record remains the
//!   commit point — and a stream arriving after the claim was fenced
//!   (requeued under a higher epoch) skips the stage but still
//!   publishes the record, so the master's authoritative epoch check
//!   rejects it through the normal stale path (marker file, metric,
//!   trace event). The `Fenced` reply to the zombie is advisory.
//!
//! [`LeaseWatch`]: esse_mtc::pool::LeaseWatch

use crate::frame::{read_frame, write_frame};
use crate::msg::{Message, PROTO_VERSION};
use crate::names;
use esse_core::durable::atomic_write;
use esse_mtc::pool::{PoolManifest, TaskPool, TaskSpec, CLAIMED_DIR};
use esse_obs::recorder::{Recorder, RecorderExt};
use esse_obs::registry::{Counter, MetricsRegistry};
use esse_obs::Lane;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Name of the endpoint-discovery file written under the pool root.
///
/// Local tooling (tests, `worker_chaos`, two-host quickstarts with a
/// shared filesystem) reads the bound address from here instead of
/// parsing coordinator stdout.
pub const ENDPOINT_FILE: &str = "endpoint";

/// Atomically (re)write the endpoint file: `"{addr} #{generation}\n"`.
///
/// The write goes through a rename (`atomic_write`), so a reader never
/// sees a torn address; the generation counter lets a worker that is
/// polling for a restarted coordinator distinguish a fresh rewrite
/// from the dead incarnation's leftover.
pub fn write_endpoint(path: &std::path::Path, addr: &str, generation: u64) -> io::Result<()> {
    atomic_write(path, format!("{addr} #{generation}\n").as_bytes())
}

/// Parse an endpoint file written by [`write_endpoint`] (or by a
/// pre-generation coordinator, whose bare `"{addr}\n"` reads as
/// generation 0). `Ok(None)` means absent or not (yet) a plausible
/// address — pollers just try again.
pub fn read_endpoint(path: &std::path::Path) -> io::Result<Option<(String, u64)>> {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut parts = raw.split_whitespace();
    let Some(addr) = parts.next() else { return Ok(None) };
    // A garbage or truncated token never yields a dial target.
    if !addr.contains(':') {
        return Ok(None);
    }
    let generation = parts
        .next()
        .and_then(|t| t.strip_prefix('#'))
        .and_then(|t| t.parse::<u64>().ok())
        .unwrap_or(0);
    Ok(Some((addr.to_string(), generation)))
}

/// Hard cap on a single streamed result payload (sum of `Data` chunks).
const MAX_PAYLOAD: u64 = 256 * 1024 * 1024;

/// Counter handles for the `esse_net_*` metric family.
///
/// Handles are `Arc`-backed clones into the coordinator's
/// [`MetricsRegistry`], so server threads bump the same counters the
/// master exports to `metrics.prom`.
#[derive(Clone)]
pub struct NetMetrics {
    /// Connections accepted (`esse_net_connections_total`).
    pub connections: Counter,
    /// Connections closed, any cause (`esse_net_disconnects_total`).
    pub disconnects: Counter,
    /// Handshakes refused (`esse_net_rejects_total`).
    pub rejects: Counter,
    /// Tasks claimed over the wire (`esse_net_claims_total`).
    pub claims: Counter,
    /// Result records published over the wire (`esse_net_results_total`).
    pub results: Counter,
    /// Advisory fenced replies sent (`esse_net_fenced_total`).
    pub fenced: Counter,
    /// Payload bytes streamed into the workdir
    /// (`esse_net_bytes_streamed_total`).
    pub bytes_streamed: Counter,
    /// Span batches persisted as trace sidecars
    /// (`esse_net_trace_batches_total`).
    pub trace_batches: Counter,
    /// Span batches dropped as corrupt (`esse_net_trace_rejects_total`).
    pub trace_rejects: Counter,
}

impl NetMetrics {
    /// Register (or re-attach to) the `esse_net_*` family in `reg`.
    pub fn from_registry(reg: &MetricsRegistry) -> NetMetrics {
        NetMetrics {
            connections: reg.counter("esse_net_connections_total"),
            disconnects: reg.counter("esse_net_disconnects_total"),
            rejects: reg.counter("esse_net_rejects_total"),
            claims: reg.counter("esse_net_claims_total"),
            results: reg.counter("esse_net_results_total"),
            fenced: reg.counter("esse_net_fenced_total"),
            bytes_streamed: reg.counter("esse_net_bytes_streamed_total"),
            trace_batches: reg.counter("esse_net_trace_batches_total"),
            trace_rejects: reg.counter("esse_net_trace_rejects_total"),
        }
    }

    /// Standalone counters not attached to any registry (tests,
    /// benches).
    pub fn detached() -> NetMetrics {
        NetMetrics::from_registry(&MetricsRegistry::new())
    }
}

/// Everything a listener needs to serve a run.
pub struct ServerConfig {
    /// The coordinator's local pool (shared with the master loop).
    pub pool: TaskPool,
    /// The run manifest echoed to workers in `Welcome`.
    pub manifest: PoolManifest,
    /// The run workdir: source of `mean.vec`/`prior.sub` staging bytes
    /// and destination of streamed forecast files.
    pub workdir: PathBuf,
    /// Listen address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub listen: String,
    /// Endpoint-file generation: the coordinator incarnation that
    /// bound this listener. Workers polling `pool/endpoint` after a
    /// coordinator crash use the generation to tell a fresh rewrite
    /// from the dead incarnation's leftover.
    pub generation: u64,
    /// `esse_net_*` counters.
    pub metrics: NetMetrics,
    /// Trace sink for connection/fencing events.
    pub recorder: Arc<dyn Recorder + Send + Sync>,
}

/// A running listener; dropping it without [`NetServer::stop`] leaves
/// the accept thread running until process exit.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl NetServer {
    /// Bind, write the endpoint file, and start accepting workers.
    pub fn start(cfg: ServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        write_endpoint(&cfg.pool.root().join(ENDPOINT_FILE), &addr.to_string(), cfg.generation)?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let accept_stop = Arc::clone(&stop);
        let accept_active = Arc::clone(&active);
        let shared = Arc::new(cfg);
        let accept_thread = thread::Builder::new()
            .name("esse-net-accept".into())
            .spawn(move || accept_loop(listener, shared, accept_stop, accept_active))
            .expect("spawn accept thread");
        Ok(NetServer { addr, stop, active, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Keep serving for at least `linger`, and after that until every
    /// live connection has drained out, up to `timeout` total. Returns
    /// `true` when the connection count was zero at return.
    ///
    /// Call this *after* the SHUTDOWN tombstone is written and *before*
    /// [`NetServer::stop`]: a remote worker only learns the run is over
    /// through a `Shutdown` claim reply, and it still ships its final
    /// trace batch over the same connection before hanging up. Stopping
    /// the listener first would instead drop those workers into their
    /// coordinator-reconnect grace and they would exit as orphans.
    ///
    /// The minimum linger exists for workers that are *not* connected
    /// at completion time: a worker parked by a coordinator outage
    /// dials the endpoint at a bounded poll cadence, and if the run
    /// finishes (e.g. from journaled results alone) during its between-
    /// dials gap, a close-on-idle listener would vanish before the next
    /// dial — the worker could never learn the run ended and would burn
    /// its whole grace as an orphan. Lingering one poll interval past
    /// completion guarantees every parked worker gets one dial at a
    /// listener that answers `Shutdown`.
    pub fn drain(&self, linger: Duration, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        loop {
            let idle = self.active.load(Ordering::SeqCst) == 0;
            if idle && start.elapsed() >= linger {
                return true;
            }
            if start.elapsed() >= timeout {
                return idle;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stop accepting and join the accept thread. Connection threads
    /// notice the flag at their next read timeout and drain out.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Decrements the live-connection gauge when a connection thread ends,
/// however it ends — keeps [`NetServer::drain`] honest under panics.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: TcpListener,
    cfg: Arc<ServerConfig>,
    stop: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let cfg = Arc::clone(&cfg);
                let stop = Arc::clone(&stop);
                // Counted before the thread spawns so a drain right
                // after an accept can never observe a dip to zero.
                active.fetch_add(1, Ordering::SeqCst);
                let guard = ConnGuard(Arc::clone(&active));
                let _ =
                    thread::Builder::new().name(format!("esse-net-conn-{peer}")).spawn(move || {
                        let _guard = guard;
                        cfg.metrics.connections.inc();
                        let outcome = serve_connection(stream, &cfg, &stop);
                        cfg.metrics.disconnects.inc();
                        if cfg.recorder.enabled() {
                            cfg.recorder.instant_at(
                                cfg.recorder.now_ns(),
                                Lane::Coordinator,
                                "net",
                                "net_disconnect",
                                vec![("clean", esse_obs::ArgValue::Bool(outcome.is_ok()))],
                            );
                        }
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(50));
            }
            Err(_) => thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Read one frame through [`read_frame`], tolerating read timeouts so
/// the connection thread can observe the stop flag while idle. Returns
/// `Ok(None)` when the server is stopping and no frame is in flight.
fn read_frame_or_stop(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut patient = PatientRead { stream, stop, in_flight: false, strikes: 0 };
    match read_frame(&mut patient) {
        Ok(body) => Ok(Some(body)),
        // The adapter's own give-up, before any byte of a frame arrived.
        Err(e) if e.kind() == io::ErrorKind::TimedOut && !patient.in_flight => Ok(None),
        Err(e) => Err(e),
    }
}

/// A `Read` over one frame's worth of a socket that rides out read
/// timeouts. A stop request wins at once while no byte of the frame has
/// arrived; once a frame is partially read we keep going until the peer
/// stalls for four timeouts in a row, so framing is never lost
/// mid-message. Either way the give-up is a `TimedOut` error.
struct PatientRead<'a> {
    stream: &'a mut TcpStream,
    stop: &'a AtomicBool,
    in_flight: bool,
    strikes: u32,
}

impl Read for PatientRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    self.in_flight |= n > 0;
                    self.strikes = 0;
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if !self.stop.load(Ordering::SeqCst) {
                        continue;
                    }
                    self.strikes += 1;
                    if !self.in_flight || self.strikes >= 4 {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "server stopping"));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    cfg: &ServerConfig,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true).ok();

    // Handshake first: anything else on a fresh connection is a
    // protocol violation and drops it.
    let Some(body) = read_frame_or_stop(&mut stream, stop)? else {
        return Ok(());
    };
    let worker_id = match Message::decode(&body)? {
        Message::Hello { proto, worker_id, pid: _, config_hash } => {
            let refusal = if proto != PROTO_VERSION {
                Some(format!("protocol {proto} unsupported (want {PROTO_VERSION})"))
            } else if config_hash != 0 && config_hash != cfg.manifest.config_hash {
                Some(format!(
                    "config hash mismatch: worker {:#x}, run {:#x}",
                    config_hash, cfg.manifest.config_hash
                ))
            } else {
                None
            };
            if let Some(reason) = refusal {
                cfg.metrics.rejects.inc();
                net_instant(cfg, "net_reject", worker_id);
                write_frame(&mut stream, &Message::Reject { reason }.encode())?;
                return Ok(());
            }
            let mean = std::fs::read(cfg.workdir.join(names::MEAN))?;
            let prior = std::fs::read(cfg.workdir.join(names::PRIOR))?;
            net_instant(cfg, "net_connect", worker_id);
            write_frame(
                &mut stream,
                &Message::Welcome { manifest: cfg.manifest.clone(), mean, prior }.encode(),
            )?;
            worker_id
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected hello, got {}", other.name()),
            ));
        }
    };

    loop {
        let Some(body) = read_frame_or_stop(&mut stream, stop)? else {
            return Ok(());
        };
        // A stopping server answers no further requests — dropping the
        // connection pushes the worker into its reconnect grace.
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let reply = match Message::decode(&body)? {
            Message::Claim => handle_claim(cfg)?,
            Message::Renew { spec, hb } => {
                if claim_is_current(&cfg.pool, &spec) {
                    cfg.pool.heartbeat(&spec, &hb)?;
                    Message::RenewOk
                } else {
                    cfg.metrics.fenced.inc();
                    net_instant(cfg, "net_fenced", spec.member);
                    Message::Fenced
                }
            }
            Message::Result { rec, payload_len } => {
                if payload_len > MAX_PAYLOAD {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("result payload of {payload_len} bytes exceeds cap"),
                    ));
                }
                let payload = read_result_stream(&mut stream, stop, payload_len)?;
                let spec =
                    TaskSpec { member: rec.member, epoch: rec.epoch, seed: 0, parent_span: 0 };
                if claim_is_current(&cfg.pool, &spec) {
                    // Stage the forecast before publishing: the record
                    // is the commit point, and the master validates the
                    // file's CRC against rec.fc_crc on ingest.
                    if !payload.is_empty() {
                        atomic_write(cfg.workdir.join(names::fc(rec.member)), &payload)?;
                        cfg.metrics.bytes_streamed.add(payload.len() as u64);
                    }
                    cfg.pool.publish_result(&rec)?;
                    cfg.metrics.results.inc();
                    Message::ResultAck
                } else {
                    // Fenced: skip the stage, publish the record anyway
                    // so the master's authoritative epoch check rejects
                    // it through the normal stale path.
                    cfg.pool.publish_result(&rec)?;
                    cfg.metrics.fenced.inc();
                    net_instant(cfg, "net_fenced", rec.member);
                    Message::Fenced
                }
            }
            Message::Rejected { rec } => {
                // A self-check quarantine: no payload to stage, just the
                // typed record. Published even when fenced, so the
                // master's epoch check handles staleness uniformly.
                let spec =
                    TaskSpec { member: rec.member, epoch: rec.epoch, seed: 0, parent_span: 0 };
                let current = claim_is_current(&cfg.pool, &spec);
                cfg.pool.publish_result(&rec)?;
                if current {
                    cfg.metrics.results.inc();
                    net_instant(cfg, "net_rejected", rec.member);
                    Message::ResultAck
                } else {
                    cfg.metrics.fenced.inc();
                    net_instant(cfg, "net_fenced", rec.member);
                    Message::Fenced
                }
            }
            Message::Release { spec } => {
                cfg.pool.release_claim(&spec)?;
                Message::ReleaseAck
            }
            Message::Query => {
                Message::RunInfo { cancelled: cfg.pool.cancelled(), shutdown: cfg.pool.shutdown() }
            }
            Message::Trace { bytes } => {
                // Tracing must never be load-bearing: a corrupt batch is
                // counted and dropped, but the connection (and the task
                // flow on it) keeps going. Persisting under the batch's
                // canonical name makes re-shipping after an exchange
                // retry idempotent.
                match esse_obs::fleet::SpanBatch::decode(&bytes) {
                    Ok(batch) => {
                        cfg.pool.write_trace_sidecar(&batch.file_name(), &bytes)?;
                        cfg.metrics.trace_batches.inc();
                        net_instant(cfg, "net_trace", batch.worker_id as u64);
                    }
                    Err(_) => {
                        cfg.metrics.trace_rejects.inc();
                        net_instant(cfg, "net_trace_reject", worker_id);
                    }
                }
                Message::TraceAck { server_ns: cfg.recorder.now_ns() }
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected {} from worker {worker_id}", other.name()),
                ));
            }
        };
        write_frame(&mut stream, &reply.encode())?;
    }
}

fn handle_claim(cfg: &ServerConfig) -> io::Result<Message> {
    if cfg.pool.shutdown() {
        return Ok(Message::Shutdown);
    }
    if cfg.pool.cancelled() {
        return Ok(Message::Cancelled);
    }
    for name in cfg.pool.pending_names()? {
        if let Some(spec) = cfg.pool.try_claim(&name)? {
            cfg.metrics.claims.inc();
            // Stamped *inside* the worker's claim exchange, so the skew
            // estimator gets a true request/response midpoint probe.
            if cfg.recorder.enabled() {
                cfg.recorder.instant_at(
                    cfg.recorder.now_ns(),
                    Lane::Coordinator,
                    "net",
                    "net_grant",
                    vec![
                        ("member", esse_obs::ArgValue::U64(spec.member)),
                        ("epoch", esse_obs::ArgValue::U64(spec.epoch as u64)),
                    ],
                );
            }
            return Ok(Message::Task { spec });
        }
    }
    Ok(Message::Idle)
}

/// A claim is current while its claim file exists; requeue under a
/// higher epoch removes it.
fn claim_is_current(pool: &TaskPool, spec: &TaskSpec) -> bool {
    pool.root().join(CLAIMED_DIR).join(spec.file_name()).exists()
}

fn read_result_stream(
    stream: &mut TcpStream,
    stop: &AtomicBool,
    payload_len: u64,
) -> io::Result<Vec<u8>> {
    let mut payload = Vec::with_capacity(payload_len.min(crate::frame::MAX_FRAME as u64) as usize);
    loop {
        let Some(body) = read_frame_or_stop(stream, stop)? else {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "server stopping mid result stream",
            ));
        };
        match Message::decode(&body)? {
            Message::Data { chunk } => {
                payload.extend_from_slice(&chunk);
                if payload.len() as u64 > payload_len {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("result stream overran its declared {payload_len} bytes"),
                    ));
                }
            }
            Message::ResultEnd => {
                if payload.len() as u64 != payload_len {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "result stream ended at {} of {payload_len} declared bytes",
                            payload.len()
                        ),
                    ));
                }
                return Ok(payload);
            }
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected data/result_end, got {}", other.name()),
                ));
            }
        }
    }
}

fn net_instant(cfg: &ServerConfig, name: &'static str, worker: u64) {
    if cfg.recorder.enabled() {
        cfg.recorder.instant_at(
            cfg.recorder.now_ns(),
            Lane::Coordinator,
            "net",
            name,
            vec![("worker", esse_obs::ArgValue::U64(worker))],
        );
    }
}
