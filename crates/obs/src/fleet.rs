//! Fleet-wide distributed tracing: span batches shipped from remote
//! workers, per-worker clock-offset estimation, and merging remote
//! spans into the coordinator's run trace.
//!
//! The MTC runtime is multi-process (PRs 5–6): an `esse_master`
//! coordinator plus an elastic fleet of `esse_worker` processes joined
//! over a shared filesystem or TCP. Each process stamps events on its
//! *own* recorder epoch (`Instant`-based, nanoseconds from process
//! start), so worker timestamps are meaningless on the coordinator's
//! timeline until rebased. This module provides the three pieces that
//! turn per-process ring buffers into one fleet-wide timeline:
//!
//! * [`SpanBatch`] — a sealed ([`crate::codec`]), self-describing batch of
//!   finished worker events, shipped to the coordinator as a sidecar file next
//!   to the task's result record (disk transport) or as a `TRACE`
//!   protocol message (TCP transport). Truncated or bit-flipped batches
//!   decode to an error, never to wrong data — a SIGKILL'd worker's
//!   partial batch is simply dropped.
//! * [`SkewEstimator`] — interval-intersection clock alignment in the
//!   spirit of NTP's request/response midpoint, using only ordering
//!   facts both sides already record (enqueue before claim, claim seen
//!   after claim began, ingest after publish began). Consistent with
//!   the lease design, no cross-host wall-clock is ever compared.
//! * [`merge_batches`] — rebases every batch onto the coordinator
//!   clock and splices the events into the run [`Trace`] on
//!   [`Lane::Worker`] lanes, so `analyze` sees one DAG with
//!   cross-process edges (enqueue→claim→publish→ingest).
//!
//! Because rebasing applies one affine shift per worker, a worker's own
//! happens-before order is preserved exactly; and because the final
//! offset is clamped into the feasibility interval, cross-process edges
//! never point backwards when the interval is non-empty.

use crate::codec::{magic, seal, unseal, CodecError, Reader, Writer};
use crate::event::{ArgValue, Event, EventKind, Lane};
use crate::trace::Trace;
use std::collections::BTreeMap;

/// Batch format version.
pub const BATCH_VERSION: u8 = 2;
/// Decode refuses batches claiming more events than this (corruption
/// guard: a flipped length byte must not trigger a huge allocation).
pub const MAX_BATCH_EVENTS: u32 = 1 << 20;

/// SplitMix64 — the deterministic id mixer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The coordinator-assigned parent span id for a task, derived
/// deterministically from the trace context so both sides agree without
/// extra round trips. Masked to 48 bits so the id survives an f64
/// round-trip through JSONL args exactly.
pub fn span_id(run_id: u64, member: u64, epoch: u32) -> u64 {
    mix64(run_id ^ member.rotate_left(24) ^ (epoch as u64).rotate_left(48)) & 0xFFFF_FFFF_FFFF
}

/// Derive a run id from the pool's config hash and base seed. Nonzero
/// by construction (zero means "tracing disabled" in the manifest).
pub fn run_id(config_hash: u32, base_seed: u64) -> u64 {
    mix64((config_hash as u64).rotate_left(32) ^ base_seed) | 1
}

// ---------------------------------------------------------------------
// Interning: remote batches carry owned strings, the Event model wants
// &'static str. The worker vocabulary is fixed and versioned with the
// binaries, so a lookup table suffices; unknown strings degrade to a
// generic label rather than being dropped.
// ---------------------------------------------------------------------

const CATS: &[&str] = &["task", "phase", "io", "net", "pool", "fleet", "sched"];
const NAMES: &[&str] = &[
    "task",
    "claim",
    "stage",
    "pert",
    "pemodel",
    "publish",
    "release",
    "idle",
    "startup",
    "shutdown",
    "flush",
    "batch",
    "worker_offset",
];
const KEYS: &[&str] = &[
    "member",
    "epoch",
    "seed",
    "run",
    "span",
    "parent",
    "worker",
    "code",
    "attempt",
    "bytes",
    "dropped",
    "spans",
    "batches",
    "offset_ns",
    "uncertainty_ns",
    "constrained",
    "outcome",
];

fn intern(s: &str, table: &[&'static str], fallback: &'static str) -> &'static str {
    table.iter().find(|&&t| t == s).copied().unwrap_or(fallback)
}

/// Intern a remote category into the static vocabulary (`"remote"` if
/// unknown).
pub fn intern_cat(s: &str) -> &'static str {
    intern(s, CATS, "remote")
}

/// Intern a remote event name (`"remote"` if unknown).
pub fn intern_name(s: &str) -> &'static str {
    intern(s, NAMES, "remote")
}

/// Intern a remote argument key (`"arg"` if unknown).
pub fn intern_key(s: &str) -> &'static str {
    intern(s, KEYS, "arg")
}

// ---------------------------------------------------------------------
// Span batches
// ---------------------------------------------------------------------

/// Event kind inside a batch (the wire twin of [`EventKind`], minus
/// counters — worker counters travel through the metrics registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteKind {
    /// Span open.
    Begin,
    /// Span close (LIFO per batch).
    End,
    /// Point event.
    Instant,
}

/// One worker event inside a batch, timestamps on the worker's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteEvent {
    /// Begin / End / Instant.
    pub kind: RemoteKind,
    /// Nanoseconds from the *worker's* recorder epoch.
    pub ts_ns: u64,
    /// Category (interned into the static vocabulary at merge time).
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Attached arguments.
    pub args: Vec<(String, ArgValue)>,
}

/// A batch of finished worker events for one task (or the worker's
/// final flush), ready to ship to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBatch {
    /// Trace run id from the pool manifest (0 never ships).
    pub run_id: u64,
    /// The shipping worker's id ([`Lane::Worker`] index).
    pub worker_id: u32,
    /// Member index of the task this batch covers.
    pub member: u64,
    /// Fencing epoch of the task this batch covers.
    pub epoch: u32,
    /// `true` for the worker's final flush at exit (not tied to a task).
    pub final_flush: bool,
    /// Events the worker's ring dropped before this batch was drained.
    pub dropped: u64,
    /// Ordered, balance-sanitized events.
    pub events: Vec<RemoteEvent>,
}

impl SpanBatch {
    /// Build a batch from a drained worker trace, keeping Begin/End/
    /// Instant events in recorded order. The stream is sanitized so the
    /// merged trace stays well-formed even if ring overflow orphaned a
    /// pair: an `End` with no open `Begin` is skipped, and spans still
    /// open at the end of the batch are closed at the batch's last
    /// timestamp.
    pub fn from_trace(
        run_id: u64,
        worker_id: u32,
        member: u64,
        epoch: u32,
        final_flush: bool,
        trace: &Trace,
    ) -> Self {
        let mut events: Vec<RemoteEvent> = Vec::new();
        let mut open: Vec<&'static str> = Vec::new();
        let mut last_ts = 0u64;
        for ev in &trace.events {
            last_ts = last_ts.max(ev.ts_ns);
            let kind = match ev.kind {
                EventKind::Begin => {
                    open.push(ev.name);
                    RemoteKind::Begin
                }
                EventKind::End => match open.last() {
                    Some(&n) if n == ev.name => {
                        open.pop();
                        RemoteKind::End
                    }
                    _ => continue, // orphaned End (its Begin was dropped)
                },
                EventKind::Instant => RemoteKind::Instant,
                EventKind::Counter(_) => continue,
            };
            events.push(RemoteEvent {
                kind,
                ts_ns: ev.ts_ns,
                cat: ev.cat.to_string(),
                name: ev.name.to_string(),
                args: ev.args.iter().map(|(k, v)| (k.to_string(), v.clone())).collect(),
            });
        }
        // Close anything ring overflow left open, innermost first.
        while let Some(name) = open.pop() {
            events.push(RemoteEvent {
                kind: RemoteKind::End,
                ts_ns: last_ts,
                cat: "task".to_string(),
                name: name.to_string(),
                args: Vec::new(),
            });
        }
        SpanBatch { run_id, worker_id, member, epoch, final_flush, dropped: trace.dropped, events }
    }

    /// Canonical sidecar file name: next to the task's result record
    /// (`rMMMMMM.eEEEEE.trace`) or, for the final flush, keyed by
    /// worker (`wWWWWW.final.trace`). Both are invisible to pool scans,
    /// which only accept exactly-14-byte record names.
    pub fn file_name(&self) -> String {
        if self.final_flush {
            format!("w{:05}.final.trace", self.worker_id)
        } else {
            format!("r{:06}.e{:05}.trace", self.member, self.epoch)
        }
    }

    /// Number of span opens in the batch.
    pub fn span_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind == RemoteKind::Begin).count()
    }

    /// Closed spans named `name`, as `(begin_ns, end_ns)` on the worker
    /// clock (LIFO matching over the sanitized stream).
    pub fn spans_named(&self, name: &str) -> Vec<(u64, u64)> {
        let mut open: Vec<&RemoteEvent> = Vec::new();
        let mut out = Vec::new();
        for ev in &self.events {
            match ev.kind {
                RemoteKind::Begin => open.push(ev),
                RemoteKind::End => {
                    if let Some(b) = open.pop() {
                        if b.name == name {
                            out.push((b.ts_ns, ev.ts_ns.max(b.ts_ns)));
                        }
                    }
                }
                RemoteKind::Instant => {}
            }
        }
        out
    }

    /// Serialize to the sealed wire/file format.
    pub fn encode(&self) -> Vec<u8> {
        seal(magic::SPAN_BATCH, BATCH_VERSION, |w| {
            w.reserve(64 + self.events.len() * 48);
            w.u64(self.run_id);
            w.u32(self.worker_id);
            w.u64(self.member);
            w.u32(self.epoch);
            w.u8(self.final_flush as u8);
            w.u64(self.dropped);
            w.u32(self.events.len() as u32);
            for ev in &self.events {
                w.u8(match ev.kind {
                    RemoteKind::Begin => 0,
                    RemoteKind::End => 1,
                    RemoteKind::Instant => 2,
                });
                w.u64(ev.ts_ns);
                put_str8(w, &ev.cat);
                put_str8(w, &ev.name);
                w.u8(ev.args.len().min(255) as u8);
                for (k, v) in ev.args.iter().take(255) {
                    put_str8(w, k);
                    match v {
                        ArgValue::U64(x) => {
                            w.u8(0);
                            w.u64(*x);
                        }
                        ArgValue::F64(x) => {
                            w.u8(1);
                            w.f64(*x);
                        }
                        ArgValue::Str(s) => {
                            w.u8(2);
                            let b = &s.as_bytes()[..s.len().min(u16::MAX as usize)];
                            w.bytes(&(b.len() as u16).to_le_bytes());
                            w.bytes(b);
                        }
                        ArgValue::Bool(x) => {
                            w.u8(3);
                            w.u8(*x as u8);
                        }
                    }
                }
            }
        })
    }

    /// Decode a batch. Any truncation, trailing garbage, bad magic,
    /// version mismatch, length overflow or checksum failure is an
    /// `Err` — never a panic, never silently-wrong data.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        unseal(magic::SPAN_BATCH, BATCH_VERSION, bytes, Self::get)
            .map_err(|e| format!("bad span batch: {e}"))
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let run_id = r.u64()?;
        let worker_id = r.u32()?;
        let member = r.u64()?;
        let epoch = r.u32()?;
        let final_flush = r.u8()? != 0;
        let dropped = r.u64()?;
        let n = r.u32()?;
        if n > MAX_BATCH_EVENTS {
            return Err(CodecError::FieldTooLarge(n as usize));
        }
        let mut events = Vec::with_capacity(n.min(4096) as usize);
        for _ in 0..n {
            let kind = match r.u8()? {
                0 => RemoteKind::Begin,
                1 => RemoteKind::End,
                2 => RemoteKind::Instant,
                k => return Err(CodecError::BadType(k)),
            };
            let ts_ns = r.u64()?;
            let cat = get_str8(r)?;
            let name = get_str8(r)?;
            let n_args = r.u8()?;
            let mut args = Vec::with_capacity(n_args as usize);
            for _ in 0..n_args {
                let key = get_str8(r)?;
                let v = match r.u8()? {
                    0 => ArgValue::U64(r.u64()?),
                    1 => ArgValue::F64(r.f64()?),
                    2 => {
                        let n = u16::from_le_bytes(r.array()?) as usize;
                        ArgValue::Str(r.str(n)?.to_string())
                    }
                    3 => ArgValue::Bool(r.u8()? != 0),
                    t => return Err(CodecError::BadType(t)),
                };
                args.push((key, v));
            }
            events.push(RemoteEvent { kind, ts_ns, cat, name, args });
        }
        Ok(SpanBatch { run_id, worker_id, member, epoch, final_flush, dropped, events })
    }
}

/// A string of at most 255 bytes behind a one-byte length.
fn put_str8(w: &mut Writer, s: &str) {
    let b = &s.as_bytes()[..s.len().min(255)];
    w.u8(b.len() as u8);
    w.bytes(b);
}

fn get_str8(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let n = r.u8()? as usize;
    r.str(n).map(str::to_string)
}

// ---------------------------------------------------------------------
// Clock-offset estimation
// ---------------------------------------------------------------------

/// Interval-intersection estimator for one worker's clock offset
/// against the coordinator clock.
///
/// Model: `coord_time = worker_time + offset`. Every cross-process
/// ordering fact yields a half-interval constraint on `offset`; the
/// estimate is the midpoint of the intersection, the classic
/// request/response midpoint generalized to one-sided observations:
///
/// * a task is enqueued (coordinator, `t_enq`) before the worker's
///   claim completes (`w_claim_end`): `offset ≥ t_enq − w_claim_end`;
/// * the coordinator observes the claim (`t_grant`) only after the
///   worker began it (`w_claim_begin`): `offset ≤ t_grant −
///   w_claim_begin`; when the observation is made *inside* the claim
///   exchange (TCP), the pair tightens to a true midpoint probe;
/// * a result is ingested (`t_ing`) only after the worker began
///   publishing (`w_pub_begin`): `offset ≤ t_ing − w_pub_begin`.
///
/// The midpoint error is bounded by half the interval width (at worst
/// queue wait plus scan latency on the disk transport, one RTT on
/// TCP). Jitter can make the interval contradictory; the midpoint is
/// still returned and flagged via [`SkewEstimator::consistent`].
#[derive(Debug, Clone)]
pub struct SkewEstimator {
    lo: i128,
    hi: i128,
    constraints: usize,
}

impl Default for SkewEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl SkewEstimator {
    /// Unconstrained estimator (offset estimate 0).
    pub fn new() -> Self {
        SkewEstimator { lo: i128::MIN, hi: i128::MAX, constraints: 0 }
    }

    /// Record that the coordinator instant `coord_ns` happened before
    /// the worker instant `worker_ns` (e.g. enqueue before claim end):
    /// `offset ≥ coord_ns − worker_ns`.
    pub fn coordinator_before(&mut self, coord_ns: u64, worker_ns: u64) {
        self.lo = self.lo.max(coord_ns as i128 - worker_ns as i128);
        self.constraints += 1;
    }

    /// Record that the coordinator instant `coord_ns` happened after
    /// the worker instant `worker_ns` (e.g. ingest after publish
    /// begin): `offset ≤ coord_ns − worker_ns`.
    pub fn coordinator_after(&mut self, coord_ns: u64, worker_ns: u64) {
        self.hi = self.hi.min(coord_ns as i128 - worker_ns as i128);
        self.constraints += 1;
    }

    /// A full request/response probe: the coordinator stamped
    /// `coord_ns` somewhere between the worker's `begin_ns` and
    /// `end_ns` (both worker clock).
    pub fn probe(&mut self, begin_ns: u64, coord_ns: u64, end_ns: u64) {
        self.coordinator_before(coord_ns, end_ns.max(begin_ns));
        self.coordinator_after(coord_ns, begin_ns);
    }

    /// Number of constraints absorbed.
    pub fn constraints(&self) -> usize {
        self.constraints
    }

    /// Whether the estimator saw at least one lower *and* one upper
    /// bound.
    pub fn bounded(&self) -> bool {
        self.lo != i128::MIN && self.hi != i128::MAX
    }

    /// `false` if jitter made the constraint set contradictory
    /// (`lo > hi`); the estimate is still usable (midpoint).
    pub fn consistent(&self) -> bool {
        self.lo <= self.hi
    }

    /// The offset estimate in nanoseconds (`coord = worker + offset`).
    pub fn offset_ns(&self) -> i128 {
        match (self.lo == i128::MIN, self.hi == i128::MAX) {
            (true, true) => 0,
            (false, true) => self.lo,
            (true, false) => self.hi,
            (false, false) => (self.lo + self.hi) / 2,
        }
    }

    /// Half the interval width — the worst-case rebasing error when the
    /// constraints are consistent — or `u64::MAX` if unbounded.
    pub fn uncertainty_ns(&self) -> u64 {
        if !self.bounded() {
            return u64::MAX;
        }
        let w = (self.hi - self.lo).unsigned_abs() / 2;
        w.min(u64::MAX as u128) as u64
    }

    /// Map a worker timestamp onto the coordinator clock (saturating at
    /// the epoch and at `u64::MAX`, order-preserving).
    pub fn rebase(&self, worker_ns: u64) -> u64 {
        let t = worker_ns as i128 + self.offset_ns();
        t.clamp(0, u64::MAX as i128) as u64
    }
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// Per-worker outcome of a merge.
#[derive(Debug, Clone)]
pub struct WorkerMerge {
    /// Worker id.
    pub worker_id: u32,
    /// Estimated clock offset (coordinator − worker), nanoseconds.
    pub offset_ns: i128,
    /// Worst-case rebasing error (half interval width).
    pub uncertainty_ns: u64,
    /// Whether the offset had both a lower and an upper bound.
    pub bounded: bool,
    /// Whether the constraint set was consistent.
    pub consistent: bool,
    /// Batches merged for this worker.
    pub batches: usize,
    /// Spans merged for this worker.
    pub spans: usize,
    /// Ring-dropped events the worker reported across its batches.
    pub dropped: u64,
}

/// Result of [`merge_batches`].
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Per-worker merge outcomes, sorted by worker id.
    pub workers: Vec<WorkerMerge>,
    /// Total spans spliced into the trace.
    pub spans_merged: usize,
    /// Total events spliced into the trace.
    pub events_merged: usize,
}

impl MergeReport {
    /// Sum of worker-reported ring drops.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }
}

/// Coordinator-side observations for one task key, harvested from the
/// run trace's pool/net instants.
#[derive(Debug, Default, Clone, Copy)]
struct TaskObs {
    enqueue_ns: Option<u64>,
    grant_seen_ns: Option<u64>,
    grant_probe_ns: Option<u64>,
    ingest_ns: Option<u64>,
}

fn arg_u64(ev: &Event, key: &str) -> Option<u64> {
    ev.args.iter().find(|(k, _)| *k == key).and_then(|(_, v)| match v {
        ArgValue::U64(x) => Some(*x),
        ArgValue::F64(x) if *x >= 0.0 => Some(*x as u64),
        _ => None,
    })
}

/// Rebase every batch onto the coordinator clock and splice the events
/// into `trace` on [`Lane::Worker`] lanes. Emits one
/// `fleet/worker_offset` instant per worker carrying the offset
/// estimate, then re-sorts the trace. Batches are matched against the
/// coordinator's own `pool` instants (`task_seeded`, `lease_granted`,
/// `result_ingested`) and, when present, the TCP server's in-exchange
/// `net_grant` instants for tight midpoint probes.
pub fn merge_batches(trace: &mut Trace, batches: &[SpanBatch]) -> MergeReport {
    // 1. Harvest coordinator observations keyed by (member, epoch).
    let mut obs: BTreeMap<(u64, u64), TaskObs> = BTreeMap::new();
    for ev in &trace.events {
        if ev.kind != EventKind::Instant {
            continue;
        }
        let (Some(member), Some(epoch)) = (arg_u64(ev, "member"), arg_u64(ev, "epoch")) else {
            continue;
        };
        let slot = obs.entry((member, epoch)).or_default();
        match (ev.cat, ev.name) {
            ("pool", "task_seeded") => {
                slot.enqueue_ns = Some(slot.enqueue_ns.map_or(ev.ts_ns, |t| t.min(ev.ts_ns)))
            }
            ("pool", "lease_granted") => {
                slot.grant_seen_ns = Some(slot.grant_seen_ns.map_or(ev.ts_ns, |t| t.min(ev.ts_ns)))
            }
            ("net", "net_grant") => {
                slot.grant_probe_ns =
                    Some(slot.grant_probe_ns.map_or(ev.ts_ns, |t| t.min(ev.ts_ns)))
            }
            ("pool", "result_ingested") => {
                slot.ingest_ns = Some(slot.ingest_ns.map_or(ev.ts_ns, |t| t.min(ev.ts_ns)))
            }
            _ => {}
        }
    }

    // 2. Group batches per worker and estimate each worker's offset.
    let mut per_worker: BTreeMap<u32, Vec<&SpanBatch>> = BTreeMap::new();
    for b in batches {
        per_worker.entry(b.worker_id).or_default().push(b);
    }

    let mut report = MergeReport::default();
    let mut next_seq = trace.events.iter().map(|e| e.seq).max().map_or(0, |s| s + 1);

    for (&worker_id, group) in per_worker.iter_mut() {
        // Worker-clock order across batches (the worker's clock is
        // monotone, so the earliest event orders the batch).
        group.sort_by_key(|b| b.events.first().map_or(u64::MAX, |e| e.ts_ns));

        let mut est = SkewEstimator::new();
        for b in group.iter().filter(|b| !b.final_flush) {
            let key = (b.member, b.epoch as u64);
            let Some(o) = obs.get(&key) else { continue };
            let claim = b.spans_named("claim");
            let publish = b.spans_named("publish");
            if let (Some(&(cb, ce)), Some(t)) = (claim.first(), o.enqueue_ns) {
                est.coordinator_before(t, ce.max(cb));
            }
            if let (Some(&(cb, _)), Some(t)) = (claim.first(), o.grant_seen_ns) {
                est.coordinator_after(t, cb);
            }
            if let (Some(&(cb, ce)), Some(t)) = (claim.first(), o.grant_probe_ns) {
                est.probe(cb, t, ce);
            }
            if let (Some(&(pb, _)), Some(t)) = (publish.first(), o.ingest_ns) {
                est.coordinator_after(t, pb);
            }
        }

        let lane = Lane::Worker(worker_id);
        let mut spans = 0usize;
        let mut events = 0usize;
        let mut dropped = 0u64;
        let mut first_ts = u64::MAX;
        for b in group.iter() {
            dropped += b.dropped;
            for ev in &b.events {
                let ts = est.rebase(ev.ts_ns);
                first_ts = first_ts.min(ts);
                let kind = match ev.kind {
                    RemoteKind::Begin => {
                        spans += 1;
                        EventKind::Begin
                    }
                    RemoteKind::End => EventKind::End,
                    RemoteKind::Instant => EventKind::Instant,
                };
                trace.events.push(Event {
                    ts_ns: ts,
                    seq: next_seq,
                    lane,
                    cat: intern_cat(&ev.cat),
                    name: intern_name(&ev.name),
                    kind,
                    args: ev.args.iter().map(|(k, v)| (intern_key(k), v.clone())).collect(),
                });
                next_seq += 1;
                events += 1;
            }
        }
        if events > 0 {
            trace.events.push(Event {
                ts_ns: if first_ts == u64::MAX { 0 } else { first_ts },
                seq: next_seq,
                lane,
                cat: "fleet",
                name: "worker_offset",
                kind: EventKind::Instant,
                args: vec![
                    ("worker", ArgValue::U64(worker_id as u64)),
                    ("offset_ns", ArgValue::F64(est.offset_ns() as f64)),
                    ("uncertainty_ns", ArgValue::U64(est.uncertainty_ns())),
                    ("spans", ArgValue::U64(spans as u64)),
                    ("batches", ArgValue::U64(group.len() as u64)),
                    ("dropped", ArgValue::U64(dropped)),
                    ("constrained", ArgValue::Bool(est.bounded())),
                ],
            });
            next_seq += 1;
        }
        report.spans_merged += spans;
        report.events_merged += events;
        report.workers.push(WorkerMerge {
            worker_id,
            offset_ns: est.offset_ns(),
            uncertainty_ns: est.uncertainty_ns(),
            bounded: est.bounded(),
            consistent: est.consistent(),
            batches: group.len(),
            spans,
            dropped,
        });
    }

    trace.events.sort_unstable_by_key(|e| (e.ts_ns, e.seq));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderExt;
    use crate::ring::RingRecorder;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    fn worker_trace(t0: u64, member: u64, epoch: u32, parent: u64) -> Trace {
        let rec = RingRecorder::new();
        let lane = Lane::Worker(3);
        rec.begin_at(
            t0,
            lane,
            "task",
            "task",
            vec![
                ("member", member.into()),
                ("epoch", (epoch as u64).into()),
                ("parent", parent.into()),
            ],
        );
        rec.begin_at(t0, lane, "phase", "claim", vec![]);
        rec.end_at(t0 + 10, lane, "phase", "claim");
        rec.begin_at(t0 + 12, lane, "phase", "pert", vec![("member", member.into())]);
        rec.end_at(t0 + 60, lane, "phase", "pert");
        rec.begin_at(t0 + 62, lane, "phase", "pemodel", vec![("member", member.into())]);
        rec.end_at(t0 + 200, lane, "phase", "pemodel");
        rec.begin_at(t0 + 205, lane, "phase", "publish", vec![]);
        rec.end_at(t0 + 230, lane, "phase", "publish");
        rec.end_at(t0 + 232, lane, "task", "task");
        rec.drain()
    }

    fn demo_batch() -> SpanBatch {
        SpanBatch::from_trace(77, 3, 5, 2, false, &worker_trace(1000, 5, 2, span_id(77, 5, 2)))
    }

    #[test]
    fn codec_roundtrip_preserves_everything() {
        let b = demo_batch();
        let enc = b.encode();
        let dec = SpanBatch::decode(&enc).expect("roundtrip");
        assert_eq!(b, dec);
        assert_eq!(dec.span_count(), 5);
        assert_eq!(dec.file_name(), "r000005.e00002.trace");
        assert_eq!(
            SpanBatch::from_trace(1, 9, 0, 0, true, &Trace::default()).file_name(),
            "w00009.final.trace"
        );
    }

    #[test]
    fn codec_rejects_truncation_at_every_length() {
        let enc = demo_batch().encode();
        for n in 0..enc.len() {
            assert!(SpanBatch::decode(&enc[..n]).is_err(), "accepted truncation to {n} bytes");
        }
        // Trailing garbage is rejected too.
        let mut long = enc.clone();
        long.extend_from_slice(&[0u8; 7]);
        assert!(SpanBatch::decode(&long).is_err());
    }

    #[test]
    fn codec_rejects_every_single_bit_flip() {
        let enc = demo_batch().encode();
        let mut rng = 0x1234_5678_9abc_def0u64;
        // Exhaustive over bytes, sampled over bits, plus every bit of
        // the header and trailer.
        for byte in 0..enc.len() {
            let bit = (xorshift(&mut rng) % 8) as u8;
            let mut bad = enc.clone();
            bad[byte] ^= 1 << bit;
            match SpanBatch::decode(&bad) {
                Err(_) => {}
                Ok(got) => panic!(
                    "bit flip at byte {byte} bit {bit} decoded successfully: {:?}",
                    got.file_name()
                ),
            }
        }
    }

    #[test]
    fn sanitizer_closes_open_spans_and_drops_orphan_ends() {
        let rec = RingRecorder::new();
        let lane = Lane::Worker(0);
        rec.end_at(5, lane, "phase", "claim"); // orphan End: Begin was dropped
        rec.begin_at(10, lane, "task", "task", vec![]);
        rec.begin_at(11, lane, "phase", "pert", vec![]);
        rec.end_at(20, lane, "phase", "pert");
        // task left open: the worker was killed mid-batch.
        let b = SpanBatch::from_trace(1, 0, 0, 1, false, &rec.drain());
        // The orphan End vanished, the open task span was closed.
        assert_eq!(b.spans_named("task"), vec![(10, 20)]);
        assert_eq!(b.spans_named("pert"), vec![(11, 20)]);
        let mut trace = Trace::default();
        merge_batches(&mut trace, &[b]);
        trace.check_well_formed().expect("sanitized batch merges well-formed");
    }

    #[test]
    fn skew_recovers_offset_under_asymmetric_latency_and_jitter() {
        // Property: for any true offset and any (asymmetric, jittered)
        // latencies, the estimate from full probes errs by at most half
        // the tightest probe's round trip.
        let mut rng = 0xfeed_f00du64;
        for case in 0..500u64 {
            let true_off = (xorshift(&mut rng) % (1 << 40)) as i128 - (1 << 39);
            // Worker clock far enough along that coordinator stamps stay
            // non-negative under the most negative offset drawn above.
            let w_base = 1_000_000 + if true_off < 0 { (-true_off) as u64 } else { 0 };
            let mut est = SkewEstimator::new();
            let mut tightest = u64::MAX;
            for _ in 0..1 + case % 7 {
                let w_begin = w_base + xorshift(&mut rng) % 1_000_000;
                // Asymmetric: request and response latencies differ.
                let req_lat = xorshift(&mut rng) % 40_000;
                let rsp_lat = xorshift(&mut rng) % 400_000;
                let coord = (w_begin + req_lat) as i128 + true_off;
                let w_end = w_begin + req_lat + rsp_lat;
                est.probe(w_begin, u64::try_from(coord).expect("coord stamp >= 0"), w_end);
                tightest = tightest.min(w_end - w_begin);
            }
            assert!(est.bounded() && est.consistent());
            let err = (est.offset_ns() - true_off).unsigned_abs();
            assert!(
                err <= (tightest as u128).div_ceil(2),
                "case {case}: err {err} > rtt/2 {tightest}/2 (true {true_off})"
            );
            assert!(est.uncertainty_ns() as u128 <= (tightest as u128).div_ceil(2) + 1);
        }
    }

    #[test]
    fn skew_one_sided_bounds_and_contradictions_stay_usable() {
        let mut est = SkewEstimator::new();
        assert_eq!(est.offset_ns(), 0);
        assert_eq!(est.uncertainty_ns(), u64::MAX);
        est.coordinator_before(500, 100); // off >= 400
        assert!(!est.bounded());
        assert_eq!(est.offset_ns(), 400);
        est.coordinator_after(1000, 100); // off <= 900
        assert!(est.bounded() && est.consistent());
        assert_eq!(est.offset_ns(), 650);
        assert_eq!(est.uncertainty_ns(), 250);
        // A jittered contradictory constraint keeps a finite estimate.
        est.coordinator_after(100, 100); // off <= 0 < lo
        assert!(!est.consistent());
        assert_eq!(est.offset_ns(), 200);
    }

    #[test]
    fn rebase_never_reorders_a_workers_happens_before_edges() {
        // Property: rebasing is affine per worker, so any monotone
        // worker-clock sequence stays monotone after rebasing — for
        // offsets of either sign, including saturating ones.
        let mut rng = 0xdead_beefu64;
        for _ in 0..200 {
            let mut est = SkewEstimator::new();
            let c = xorshift(&mut rng) % (1 << 45);
            let w = xorshift(&mut rng) % (1 << 45);
            est.probe(w, c, w + xorshift(&mut rng) % 10_000);
            let mut ts: Vec<u64> = (0..64).map(|_| xorshift(&mut rng) % (1 << 46)).collect();
            ts.sort_unstable();
            let rebased: Vec<u64> = ts.iter().map(|&t| est.rebase(t)).collect();
            assert!(
                rebased.windows(2).all(|p| p[0] <= p[1]),
                "rebasing reordered events (offset {})",
                est.offset_ns()
            );
        }
    }

    fn coordinator_trace() -> Trace {
        let rec = RingRecorder::new();
        let lane = Lane::Coordinator;
        let run = 77u64;
        rec.instant_at(
            100,
            lane,
            "pool",
            "task_seeded",
            vec![
                ("member", 5u64.into()),
                ("epoch", 2u64.into()),
                ("span", span_id(run, 5, 2).into()),
            ],
        );
        rec.instant_at(
            1500,
            lane,
            "pool",
            "lease_granted",
            vec![("member", 5u64.into()), ("epoch", 2u64.into())],
        );
        rec.instant_at(
            5000,
            lane,
            "pool",
            "result_ingested",
            vec![("member", 5u64.into()), ("epoch", 2u64.into())],
        );
        rec.drain()
    }

    #[test]
    fn merge_rebases_into_a_well_formed_cross_process_timeline() {
        let mut trace = coordinator_trace();
        let batch = demo_batch(); // worker clock starts at 1000
        let report = merge_batches(&mut trace, &[batch]);
        assert_eq!(report.workers.len(), 1);
        let w = &report.workers[0];
        assert_eq!(w.worker_id, 3);
        assert!(w.bounded && w.consistent, "both bounds present: {w:?}");
        assert_eq!(w.spans, 5);
        trace.check_well_formed().expect("merged trace well-formed");
        // Cross-process edges point forward: enqueue (100) precedes the
        // rebased claim end, and the rebased publish begin precedes
        // ingest (5000).
        let spans = trace.spans();
        let claim = spans.iter().find(|s| s.name == "claim").unwrap();
        let publish = spans.iter().find(|s| s.name == "publish").unwrap();
        assert!(claim.end_ns >= 100, "claim rebased before its enqueue: {}", claim.end_ns);
        assert!(publish.start_ns <= 5000, "publish rebased after its ingest: {}", publish.start_ns);
        // The offset instant is present and carries the worker id.
        let off = trace.instants("worker_offset");
        assert_eq!(off.len(), 1);
        assert_eq!(arg_u64(off[0], "worker"), Some(3));
    }

    #[test]
    fn merge_without_observations_still_produces_a_valid_timeline() {
        // A batch whose task the coordinator never recorded (e.g. the
        // trace ring dropped the instants): offset unconstrained, but
        // the merged trace is still well-formed.
        let mut trace = Trace::default();
        let report = merge_batches(&mut trace, &[demo_batch()]);
        assert!(!report.workers[0].bounded);
        assert_eq!(report.workers[0].offset_ns, 0);
        trace.check_well_formed().expect("merge without obs");
    }

    #[test]
    fn span_ids_are_deterministic_distinct_and_f64_exact() {
        let a = span_id(1, 2, 3);
        assert_eq!(a, span_id(1, 2, 3));
        assert_ne!(a, span_id(1, 2, 4));
        assert_ne!(a, span_id(1, 3, 3));
        assert_ne!(a, span_id(2, 2, 3));
        assert_eq!(a, (a as f64) as u64, "span id must survive an f64 round trip");
        assert_ne!(run_id(0, 0), 0);
    }
}
