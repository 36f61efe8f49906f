//! Worker-side TCP transport: [`TcpTransport`] implements
//! [`PoolTransport`] over one coordinator connection.
//!
//! The connection is worker-initiated and strictly request/response,
//! behind a mutex (one outstanding request at a time — the protocol
//! has no interleaving). A broken connection is retried with the workspace
//! [`RetryPolicy`] backoff, capped at a polling ceiling so dial
//! attempts keep a bounded cadence, inside a bounded *reconnect
//! grace*; when the grace is exhausted the transport declares the
//! coordinator dead
//! ([`PoolTransport::coordinator_alive`] turns false) and the worker
//! self-exits instead of holding claims a successor would have to wait
//! out — the network analogue of the orphan check local workers do via
//! `/proc`.
//!
//! Reconnection re-runs the `Hello`/`Welcome` handshake (re-verifying
//! the run's config hash, so a coordinator resumed under a different
//! configuration is refused, not joined), and — when
//! [`TcpConfig::endpoint_file`] is set — re-resolves the coordinator
//! address from `pool/endpoint` on every attempt, so a coordinator
//! incarnation restarted on a new port is found mid-grace. Held claims
//! survive a reconnect (they live on the coordinator's disk, not in the
//! connection), and resumed heartbeats continue the same monotonic
//! counter, so the coordinator's lease watch simply sees the counter
//! advance again — or expire it if the outage outlived the lease, in
//! which case the next renewal is answered `Fenced` and the worker
//! abandons the task.

use crate::frame::{read_frame, write_frame};
use crate::msg::{Message, DATA_CHUNK, PROTO_VERSION};
use crate::names;
use esse_core::durable::atomic_write;
use esse_mtc::fault::RetryPolicy;
use esse_mtc::pool::{Heartbeat, PoolManifest, ResultRecord, TaskSpec};
use esse_mtc::transport::{ClaimOutcome, PoolTransport, RenewAck, RunState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Dial parameters for a worker connection.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Coordinator address, `host:port`.
    pub addr: String,
    /// Worker identity sent in `Hello`.
    pub worker_id: u64,
    /// Worker OS pid sent in `Hello`.
    pub pid: u32,
    /// Expected run config hash (0 = accept whatever the coordinator
    /// is running).
    pub config_hash: u64,
    /// Per-request socket read timeout.
    pub io_timeout: Duration,
    /// Total time a lost connection may spend reconnecting before the
    /// coordinator is declared dead.
    pub reconnect_grace: Duration,
    /// Optional path of the coordinator's `pool/endpoint` file. When
    /// set, every reconnect attempt re-reads it and dials whatever
    /// address it currently names — so a coordinator that crashed and
    /// was resumed on a *different* port is found as soon as its new
    /// incarnation rewrites the file, instead of the worker burning
    /// its whole grace on the dead incarnation's address.
    pub endpoint_file: Option<std::path::PathBuf>,
}

impl TcpConfig {
    /// Defaults for `addr` with a 10 s io timeout and 5 s grace.
    pub fn new(addr: impl Into<String>, worker_id: u64) -> TcpConfig {
        TcpConfig {
            addr: addr.into(),
            worker_id,
            pid: std::process::id(),
            config_hash: 0,
            io_timeout: Duration::from_secs(10),
            reconnect_grace: Duration::from_secs(5),
            endpoint_file: None,
        }
    }

    /// The address to dial right now: the endpoint file's current
    /// content when one is configured (and readable), else the
    /// configured address.
    fn resolve_addr(&self) -> String {
        self.endpoint_file
            .as_deref()
            .and_then(|p| crate::server::read_endpoint(p).ok().flatten())
            .map(|(addr, _generation)| addr)
            .unwrap_or_else(|| self.addr.clone())
    }
}

/// Ceiling on the reconnect backoff delay. After the first few
/// exponential steps a parked worker keeps dialing at this cadence for
/// the rest of its grace. Uncapped exponential backoff would leave
/// multi-second gaps between dials — longer than a restarted
/// coordinator incarnation may take to come up (or, under a chaos kill
/// schedule, stay up) — turning "park until a coordinator returns"
/// into a lottery on whether a dial instant happens to land inside the
/// new incarnation's lifetime.
const RECONNECT_POLL_CEILING: Duration = Duration::from_millis(250);

struct Conn {
    stream: Option<TcpStream>,
    rng: StdRng,
}

/// [`PoolTransport`] over a coordinator TCP connection.
pub struct TcpTransport {
    cfg: TcpConfig,
    manifest: PoolManifest,
    mean: Vec<u8>,
    prior: Vec<u8>,
    conn: Mutex<Conn>,
    dead: AtomicBool,
    /// The error that drove `dead` true, echoed in every subsequent
    /// [`dead_err`] so callers that hit the transport *after* the
    /// declaring call still see the root cause and not just "declared
    /// dead".
    death_cause: Mutex<Option<String>>,
    retry: RetryPolicy,
}

impl TcpTransport {
    /// Dial the coordinator once and complete the handshake.
    ///
    /// Callers that want to wait for a coordinator to appear (the
    /// worker's `--wait-pool-ms` behaviour) should loop on this.
    pub fn connect(cfg: TcpConfig) -> io::Result<TcpTransport> {
        let mut stream = dial(&cfg)?;
        let (manifest, mean, prior) = handshake(&mut stream, &cfg)?;
        Ok(TcpTransport {
            retry: RetryPolicy::retries(6).with_backoff(Duration::from_millis(50), 2.0, 0.2),
            conn: Mutex::new(Conn {
                stream: Some(stream),
                rng: StdRng::seed_from_u64(cfg.worker_id ^ 0x7C9_A11E5),
            }),
            manifest,
            mean,
            prior,
            dead: AtomicBool::new(false),
            death_cause: Mutex::new(None),
            cfg,
        })
    }

    /// One request/response exchange, transparently reconnecting within
    /// the grace window. `extra` frames (a result stream's `Data` +
    /// `ResultEnd`) are sent after `msg` before the single reply is
    /// read; on a broken connection the whole exchange is retried from
    /// scratch, which is safe because every exchange in the protocol is
    /// idempotent (re-claiming claims a different task only if the
    /// first claim never happened; re-publishing rewrites the same
    /// record and bytes).
    fn exchange(&self, msg: &Message, extra: &[Message]) -> io::Result<Message> {
        let mut conn = self.conn.lock().unwrap_or_else(|e| e.into_inner());
        let mut lost_at: Option<Instant> = None;
        let mut attempt: u32 = 0;
        loop {
            if self.dead.load(Ordering::SeqCst) {
                let cause = self.death_cause.lock().unwrap_or_else(|e| e.into_inner()).clone();
                return Err(dead_err(&self.cfg.addr, cause.as_deref()));
            }
            if conn.stream.is_none() {
                let deadline = *lost_at.get_or_insert_with(Instant::now) + self.cfg.reconnect_grace;
                match self.reconnect(&mut conn, deadline, &mut attempt) {
                    Ok(()) => {}
                    Err(e) => {
                        *self.death_cause.lock().unwrap_or_else(|p| p.into_inner()) =
                            Some(e.to_string());
                        self.dead.store(true, Ordering::SeqCst);
                        return Err(e);
                    }
                }
            }
            let stream = conn.stream.as_mut().expect("stream present after reconnect");
            match try_exchange(stream, msg, extra) {
                Ok(reply) => return Ok(reply),
                Err(e) if fatal_protocol_error(&e) => return Err(e),
                Err(_) => {
                    conn.stream = None;
                    lost_at.get_or_insert_with(Instant::now);
                }
            }
        }
    }

    fn reconnect(&self, conn: &mut Conn, deadline: Instant, attempt: &mut u32) -> io::Result<()> {
        loop {
            let delay =
                self.retry.backoff_delay(*attempt, &mut conn.rng).min(RECONNECT_POLL_CEILING);
            *attempt += 1;
            let now = Instant::now();
            if now + delay > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "coordinator {} unreachable for longer than the {}ms reconnect grace",
                        self.cfg.addr,
                        self.cfg.reconnect_grace.as_millis()
                    ),
                ));
            }
            std::thread::sleep(delay);
            let target = self.cfg.resolve_addr();
            match dial(&self.cfg).and_then(|mut s| {
                let (manifest, _, _) = handshake(&mut s, &self.cfg)?;
                if manifest.config_hash != self.manifest.config_hash {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "coordinator restarted with a different config",
                    ));
                }
                Ok(s)
            }) {
                Ok(s) => {
                    debug_log(&format!("reconnected to {target} after {} attempts", *attempt));
                    conn.stream = Some(s);
                    return Ok(());
                }
                Err(e) if fatal_protocol_error(&e) => return Err(e),
                Err(e) => {
                    debug_log(&format!("dial {target} attempt {}: {e}", *attempt));
                }
            }
        }
    }
}

/// Reconnect diagnostics, stderr-only and off by default: set
/// `ESSE_NET_DEBUG=1` to see each dial attempt while a worker is
/// parked waiting out a coordinator outage.
fn debug_log(msg: &str) {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *ON.get_or_init(|| std::env::var_os("ESSE_NET_DEBUG").is_some_and(|v| v != "0")) {
        let t =
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap_or_default();
        eprintln!("esse-net[{}.{:03}]: {msg}", t.as_secs() % 100_000, t.subsec_millis());
    }
}

fn dial(cfg: &TcpConfig) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(cfg.resolve_addr())?;
    stream.set_read_timeout(Some(cfg.io_timeout))?;
    stream.set_write_timeout(Some(cfg.io_timeout))?;
    stream.set_nodelay(true).ok();
    Ok(stream)
}

fn handshake(
    stream: &mut TcpStream,
    cfg: &TcpConfig,
) -> io::Result<(PoolManifest, Vec<u8>, Vec<u8>)> {
    write_frame(
        stream,
        &Message::Hello {
            proto: PROTO_VERSION,
            worker_id: cfg.worker_id,
            pid: cfg.pid,
            config_hash: cfg.config_hash,
        }
        .encode(),
    )?;
    match Message::decode(&read_frame(stream)?)? {
        Message::Welcome { manifest, mean, prior } => Ok((manifest, mean, prior)),
        Message::Reject { reason } => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("coordinator rejected handshake: {reason}"),
        )),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected welcome, got {}", other.name()),
        )),
    }
}

fn try_exchange(stream: &mut TcpStream, msg: &Message, extra: &[Message]) -> io::Result<Message> {
    write_frame(stream, &msg.encode())?;
    for m in extra {
        write_frame(stream, &m.encode())?;
    }
    Message::decode(&read_frame(stream)?).map_err(io::Error::from)
}

/// Errors that reconnecting cannot fix: the coordinator answered but
/// refused us (handshake reject, config change) rather than the
/// connection failing.
fn fatal_protocol_error(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::ConnectionRefused if e.to_string().contains("rejected"))
        || (e.kind() == io::ErrorKind::InvalidData && e.to_string().contains("different config"))
}

fn dead_err(addr: &str, cause: Option<&str>) -> io::Error {
    let detail = cause.unwrap_or("no cause recorded");
    io::Error::new(
        io::ErrorKind::NotConnected,
        format!("coordinator {addr} declared dead: {detail}"),
    )
}

impl PoolTransport for TcpTransport {
    fn manifest(&self) -> &PoolManifest {
        &self.manifest
    }

    fn claim_next(&self) -> io::Result<ClaimOutcome> {
        match self.exchange(&Message::Claim, &[])? {
            Message::Task { spec } => Ok(ClaimOutcome::Task(spec)),
            Message::Idle => Ok(ClaimOutcome::Idle),
            Message::Cancelled => Ok(ClaimOutcome::Cancelled),
            Message::Shutdown => Ok(ClaimOutcome::Shutdown),
            other => Err(unexpected("claim", &other)),
        }
    }

    fn renew_lease(&self, spec: &TaskSpec, hb: &Heartbeat) -> io::Result<RenewAck> {
        match self.exchange(&Message::Renew { spec: *spec, hb: *hb }, &[])? {
            Message::RenewOk => Ok(RenewAck::Ok),
            Message::Fenced => Ok(RenewAck::Fenced),
            other => Err(unexpected("renew", &other)),
        }
    }

    fn publish(&self, rec: &ResultRecord, forecast: Option<&[u8]>) -> io::Result<RenewAck> {
        if rec.code == esse_mtc::pool::CODE_REJECTED {
            // Self-check quarantine: the whole point is to save the
            // upload, so only the typed record crosses the wire.
            return match self.exchange(&Message::Rejected { rec: *rec }, &[])? {
                Message::ResultAck => Ok(RenewAck::Ok),
                Message::Fenced => Ok(RenewAck::Fenced),
                other => Err(unexpected("rejected", &other)),
            };
        }
        let payload = forecast.unwrap_or(&[]);
        let mut extra: Vec<Message> =
            payload.chunks(DATA_CHUNK).map(|c| Message::Data { chunk: c.to_vec() }).collect();
        extra.push(Message::ResultEnd);
        let open = Message::Result { rec: *rec, payload_len: payload.len() as u64 };
        match self.exchange(&open, &extra)? {
            Message::ResultAck => Ok(RenewAck::Ok),
            Message::Fenced => Ok(RenewAck::Fenced),
            other => Err(unexpected("result", &other)),
        }
    }

    fn release(&self, spec: &TaskSpec) -> io::Result<()> {
        match self.exchange(&Message::Release { spec: *spec }, &[])? {
            Message::ReleaseAck => Ok(()),
            other => Err(unexpected("release", &other)),
        }
    }

    fn ship_trace(&self, bytes: &[u8]) -> io::Result<()> {
        match self.exchange(&Message::Trace { bytes: bytes.to_vec() }, &[])? {
            Message::TraceAck { .. } => Ok(()),
            other => Err(unexpected("trace", &other)),
        }
    }

    fn run_state(&self) -> io::Result<RunState> {
        match self.exchange(&Message::Query, &[])? {
            Message::RunInfo { cancelled, shutdown } => Ok(RunState { cancelled, shutdown }),
            other => Err(unexpected("query", &other)),
        }
    }

    fn coordinator_alive(&self) -> bool {
        !self.dead.load(Ordering::SeqCst)
    }

    fn stage_inputs(&self, workdir: &Path) -> io::Result<()> {
        atomic_write(workdir.join(names::MEAN), &self.mean)?;
        atomic_write(workdir.join(names::PRIOR), &self.prior)
    }

    fn wants_payload(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("tcp:{}", self.cfg.addr)
    }
}

fn unexpected(what: &str, got: &Message) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply to {what}: {}", got.name()),
    )
}
