//! Trace analytics: turn a recorded trace (live [`Trace`] or exported
//! JSONL, wall-clock or virtual-clock) into the paper's measurements —
//! per-phase time breakdowns, queue-wait vs service-time decomposition,
//! windowed throughput, straggler identification, the critical path
//! through the run and the per-layer lane groups — all
//! recomputed from events alone, so any trace from any engine yields
//! Table 1/2-style summaries without engine cooperation.
//!
//! The analyzer is schema-driven, not engine-driven: it keys phases by
//! `cat/name`, finds tasks by the `task` category, reads member ids and
//! queue instants from event args, and groups lanes by label prefix
//! (`worker-*`/`coordinator` = the MTC engine, `core-*` = simulated
//! cluster).

use crate::event::{ArgValue, EventKind};
use crate::hist::LogHistogram;
use crate::json::{self, Value};
use crate::trace::Trace;
use std::collections::BTreeMap;

/// Event kind, owned (no `&'static` names), as re-loaded from JSONL.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadedKind {
    /// Start of a scoped span.
    Begin,
    /// End of the innermost open span on the lane.
    End,
    /// A point-in-time marker.
    Instant,
    /// A counter sample carrying its value.
    Counter(f64),
}

/// One event with owned strings: the common currency of live traces
/// and re-loaded JSONL files.
#[derive(Debug, Clone)]
pub struct LoadedEvent {
    /// Nanoseconds from the trace epoch.
    pub ts_ns: u64,
    /// Lane label (`driver`, `coordinator`, `worker-3`, `core-17`).
    pub lane: String,
    /// Stable thread id of the lane.
    pub tid: u64,
    /// Category (`task`, `svd`, `io`, `phase`, `sched`, ...).
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Mark kind.
    pub kind: LoadedKind,
    /// Attached arguments, as parsed JSON values.
    pub args: BTreeMap<String, Value>,
}

impl LoadedEvent {
    /// The `u64` argument `key`, if present.
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args.get(key).and_then(Value::as_u64)
    }

    /// The numeric argument `key`, if present.
    pub fn arg_f64(&self, key: &str) -> Option<f64> {
        self.args.get(key).and_then(Value::as_f64)
    }
}

/// A closed span reconstructed from loaded Begin/End events. Arguments
/// are those of the opening event.
#[derive(Debug, Clone)]
pub struct LoadedSpan {
    /// Lane label.
    pub lane: String,
    /// Stable thread id of the lane.
    pub tid: u64,
    /// Category of the opening event.
    pub cat: String,
    /// Name of the opening event.
    pub name: String,
    /// Start (ns from trace epoch).
    pub start_ns: u64,
    /// End (ns from trace epoch).
    pub end_ns: u64,
    /// Arguments of the opening event.
    pub args: BTreeMap<String, Value>,
}

impl LoadedSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Summary line of a `histogram` JSONL record (the exporter's rollup of
/// [`crate::Recorder::observe`] streams).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Mean in nanoseconds.
    pub mean_ns: u64,
    /// Maximum in nanoseconds.
    pub max_ns: u64,
}

/// A trace in analyzer form: owned events sorted by timestamp, from
/// either a live [`Trace`] or an exported JSONL file.
#[derive(Debug, Default)]
pub struct LoadedTrace {
    /// Time-ordered events.
    pub events: Vec<LoadedEvent>,
    /// Histogram summary lines (JSONL sources only).
    pub histograms: Vec<HistogramSummary>,
    /// Events the producing recorder discarded (ring overflow).
    pub dropped: u64,
}

fn arg_to_value(v: &ArgValue) -> Value {
    match v {
        ArgValue::U64(u) => Value::Num(*u as f64),
        ArgValue::F64(f) => Value::Num(*f),
        ArgValue::Bool(b) => Value::Bool(*b),
        ArgValue::Str(s) => Value::Str(s.clone()),
    }
}

impl LoadedTrace {
    /// Convert a live in-memory trace.
    pub fn from_trace(tr: &Trace) -> Self {
        let events = tr
            .events
            .iter()
            .map(|e| LoadedEvent {
                ts_ns: e.ts_ns,
                lane: e.lane.label(),
                tid: e.lane.tid(),
                cat: e.cat.to_string(),
                name: e.name.to_string(),
                kind: match e.kind {
                    EventKind::Begin => LoadedKind::Begin,
                    EventKind::End => LoadedKind::End,
                    EventKind::Instant => LoadedKind::Instant,
                    EventKind::Counter(v) => LoadedKind::Counter(v),
                },
                args: e.args.iter().map(|(k, v)| (k.to_string(), arg_to_value(v))).collect(),
            })
            .collect();
        let histograms = tr
            .histograms
            .iter()
            .map(|(name, h)| HistogramSummary {
                name: name.to_string(),
                count: h.count(),
                mean_ns: h.mean_ns(),
                max_ns: h.max(),
            })
            .collect();
        LoadedTrace { events, histograms, dropped: tr.dropped }
    }

    /// Parse an exported JSONL trace (`esse-obs-v1` schema). Every line
    /// must be valid JSON with a known `kind`; unknown kinds are an
    /// error so schema drift cannot be silently ignored.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut out = LoadedTrace::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing \"kind\"", i + 1))?;
            match kind {
                "meta" => {
                    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
                    if schema != "esse-obs-v1" {
                        return Err(format!("line {}: unknown schema {schema:?}", i + 1));
                    }
                    out.dropped = v.get("dropped").and_then(Value::as_u64).unwrap_or(0);
                }
                "histogram" => out.histograms.push(HistogramSummary {
                    name: v
                        .get("name")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("line {}: histogram without name", i + 1))?
                        .to_string(),
                    count: v.get("count").and_then(Value::as_u64).unwrap_or(0),
                    mean_ns: v.get("mean_ns").and_then(Value::as_u64).unwrap_or(0),
                    max_ns: v.get("max_ns").and_then(Value::as_u64).unwrap_or(0),
                }),
                "begin" | "end" | "instant" | "counter" => {
                    let get_str = |key: &str| -> Result<String, String> {
                        v.get(key)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("line {}: missing {key:?}", i + 1))
                    };
                    let args = match v.get("args") {
                        Some(Value::Obj(map)) => map.clone(),
                        _ => BTreeMap::new(),
                    };
                    out.events.push(LoadedEvent {
                        ts_ns: v
                            .get("ts_ns")
                            .and_then(Value::as_u64)
                            .ok_or_else(|| format!("line {}: missing ts_ns", i + 1))?,
                        lane: get_str("lane")?,
                        tid: v.get("tid").and_then(Value::as_u64).unwrap_or(0),
                        cat: get_str("cat")?,
                        name: get_str("name")?,
                        kind: match kind {
                            "begin" => LoadedKind::Begin,
                            "end" => LoadedKind::End,
                            "instant" => LoadedKind::Instant,
                            _ => LoadedKind::Counter(
                                v.get("value").and_then(Value::as_f64).ok_or_else(|| {
                                    format!("line {}: counter without value", i + 1)
                                })?,
                            ),
                        },
                        args,
                    });
                }
                other => return Err(format!("line {}: unknown kind {other:?}", i + 1)),
            }
        }
        out.events.sort_by_key(|e| e.ts_ns);
        Ok(out)
    }

    /// Match Begin/End pairs (LIFO per lane) into closed spans, in
    /// order of completion. Unclosed spans are omitted.
    pub fn spans(&self) -> Vec<LoadedSpan> {
        let mut open: BTreeMap<&str, Vec<&LoadedEvent>> = BTreeMap::new();
        let mut spans = Vec::new();
        for ev in &self.events {
            match ev.kind {
                LoadedKind::Begin => open.entry(&ev.lane).or_default().push(ev),
                LoadedKind::End => {
                    if let Some(b) = open.get_mut(ev.lane.as_str()).and_then(|s| s.pop()) {
                        spans.push(LoadedSpan {
                            lane: b.lane.clone(),
                            tid: b.tid,
                            cat: b.cat.clone(),
                            name: b.name.clone(),
                            start_ns: b.ts_ns,
                            end_ns: ev.ts_ns.max(b.ts_ns),
                            args: b.args.clone(),
                        });
                    }
                }
                LoadedKind::Instant | LoadedKind::Counter(_) => {}
            }
        }
        spans
    }

    /// Analyze with default options.
    pub fn analyze(&self) -> RunAnalysis {
        self.analyze_with(AnalyzeOptions::default())
    }

    /// Full analysis pass: phases, queue waits, throughput, stragglers,
    /// critical path and lane groups.
    pub fn analyze_with(&self, opts: AnalyzeOptions) -> RunAnalysis {
        let spans = self.spans();
        let t_min = self.events.first().map_or(0, |e| e.ts_ns);
        let t_max = self.events.last().map_or(0, |e| e.ts_ns);
        let makespan_ns = t_max.saturating_sub(t_min);

        RunAnalysis {
            makespan_ns,
            phases: phase_breakdown(&spans),
            queue_wait: queue_wait(&self.events, &spans),
            throughput: throughput_windows(&spans, t_min, t_max, opts.window_ns),
            stragglers: stragglers(&spans, opts.straggler_factor),
            critical_path: critical_path(&spans),
            lane_groups: lane_groups(&self.events, &spans),
            counters: final_counters(&self.events),
            task_count: spans.iter().filter(|s| s.cat == "task").count(),
            resumed_members: resumed_members(&self.events),
            pool: pool_events(&self.events),
            net: net_events(&self.events),
            fleet: fleet_stats(&self.events, &spans),
        }
    }
}

/// Knobs for [`LoadedTrace::analyze_with`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOptions {
    /// Throughput window width; `0` picks 1/20 of the makespan.
    pub window_ns: u64,
    /// A task is a straggler when its runtime exceeds this multiple of
    /// the mean task runtime.
    pub straggler_factor: f64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions { window_ns: 0, straggler_factor: 2.0 }
    }
}

/// Aggregate time spent in one span type (keyed `cat/name`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// `cat/name` key, e.g. `task/member`, `svd/svd`, `io/read`.
    pub key: String,
    /// Closed spans of this type.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Mean duration (ns).
    pub mean_ns: u64,
    /// Longest single span (ns).
    pub max_ns: u64,
}

fn phase_breakdown(spans: &[LoadedSpan]) -> Vec<PhaseStat> {
    let mut by_key: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_key.entry(format!("{}/{}", s.cat, s.name)).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 = e.2.max(s.duration_ns());
    }
    let mut out: Vec<PhaseStat> = by_key
        .into_iter()
        .map(|(key, (count, total_ns, max_ns))| PhaseStat {
            key,
            count,
            total_ns,
            mean_ns: total_ns / count.max(1),
            max_ns,
        })
        .collect();
    out.sort_by_key(|p| std::cmp::Reverse(p.total_ns));
    out
}

/// Queue-wait decomposition: time between a member's `sched/enqueued`
/// instant and the first start of its `task` span.
#[derive(Debug, Clone, PartialEq)]
pub struct WaitStats {
    /// Members with both an enqueue instant and a task start.
    pub count: u64,
    /// Mean wait (ns).
    pub mean_ns: u64,
    /// Median wait (ns, log-bucket upper edge).
    pub p50_ns: u64,
    /// 95th percentile wait.
    pub p95_ns: u64,
    /// 99th percentile wait.
    pub p99_ns: u64,
    /// Longest wait observed.
    pub max_ns: u64,
}

fn queue_wait(events: &[LoadedEvent], spans: &[LoadedSpan]) -> Option<WaitStats> {
    let mut enq: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        if e.kind == LoadedKind::Instant && e.cat == "sched" && e.name == "enqueued" {
            if let Some(m) = e.arg_u64("member") {
                enq.entry(m).or_insert(e.ts_ns);
            }
        }
    }
    if enq.is_empty() {
        return None;
    }
    let mut starts: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans {
        if s.cat != "task" {
            continue;
        }
        let Some(m) = s.args.get("member").or_else(|| s.args.get("job")).and_then(Value::as_u64)
        else {
            continue;
        };
        starts.entry(m).or_default().push(s.start_ns);
    }
    let mut h = LogHistogram::new();
    for (m, t_enq) in &enq {
        // First start at or after the enqueue: a serial pass in the same
        // trace may reuse member ids before the MTC layer enqueues them.
        let t_start = starts.get(m).and_then(|v| v.iter().filter(|&&t| t >= *t_enq).min().copied());
        if let Some(t_start) = t_start {
            h.record(t_start - t_enq);
        }
    }
    if h.count() == 0 {
        return None;
    }
    Some(WaitStats {
        count: h.count(),
        mean_ns: h.mean_ns(),
        p50_ns: h.quantile_ns(0.5),
        p95_ns: h.quantile_ns(0.95),
        p99_ns: h.quantile_ns(0.99),
        max_ns: h.max(),
    })
}

/// Task completions falling in one throughput window.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputWindow {
    /// Window start (ns from trace epoch).
    pub start_ns: u64,
    /// Window width (ns).
    pub width_ns: u64,
    /// `task` spans ending in this window.
    pub completions: u64,
}

fn throughput_windows(
    spans: &[LoadedSpan],
    t_min: u64,
    t_max: u64,
    window_ns: u64,
) -> Vec<ThroughputWindow> {
    let span = t_max.saturating_sub(t_min);
    if span == 0 {
        return Vec::new();
    }
    let width = if window_ns > 0 { window_ns } else { (span / 20).max(1) };
    let n = (span / width + 1) as usize;
    let mut counts = vec![0u64; n];
    for s in spans {
        if s.cat == "task" {
            counts[((s.end_ns - t_min) / width) as usize] += 1;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, completions)| ThroughputWindow {
            start_ns: t_min + i as u64 * width,
            width_ns: width,
            completions,
        })
        .collect()
}

/// A task span that ran much longer than its peers.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Lane the slow attempt ran on.
    pub lane: String,
    /// Member/job id, when the span carried one.
    pub member: Option<u64>,
    /// Attempt runtime (ns).
    pub duration_ns: u64,
    /// Runtime as a multiple of the mean task runtime.
    pub factor: f64,
}

fn stragglers(spans: &[LoadedSpan], factor: f64) -> Vec<Straggler> {
    let tasks: Vec<&LoadedSpan> = spans.iter().filter(|s| s.cat == "task").collect();
    if tasks.len() < 2 {
        return Vec::new();
    }
    let mean = tasks.iter().map(|s| s.duration_ns() as u128).sum::<u128>() / tasks.len() as u128;
    if mean == 0 {
        return Vec::new();
    }
    let mut out: Vec<Straggler> = tasks
        .iter()
        .filter(|s| s.duration_ns() as u128 > (mean as f64 * factor) as u128)
        .map(|s| Straggler {
            lane: s.lane.clone(),
            member: s.args.get("member").or_else(|| s.args.get("job")).and_then(Value::as_u64),
            duration_ns: s.duration_ns(),
            factor: s.duration_ns() as f64 / mean as f64,
        })
        .collect();
    out.sort_by_key(|s| std::cmp::Reverse(s.duration_ns));
    out
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalSegment {
    /// Lane of the segment's span.
    pub lane: String,
    /// `cat/name` of the span.
    pub key: String,
    /// Segment start (ns).
    pub start_ns: u64,
    /// Segment end (ns).
    pub end_ns: u64,
    /// Idle gap between the previous segment's end and this start (ns).
    pub wait_before_ns: u64,
}

/// The longest dependency-ordered chain of leaf spans ending at the
/// last work in the trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalPath {
    /// Chain segments in time order.
    pub segments: Vec<CriticalSegment>,
    /// Summed busy time on the path (ns).
    pub busy_ns: u64,
    /// Summed idle gaps on the path (ns).
    pub wait_ns: u64,
}

/// Critical path over *leaf* spans (spans that do not enclose another
/// span on the same lane — enclosing phase spans like `phase/stage`
/// would otherwise swallow the structure). Walk backwards from the
/// latest-ending leaf; each predecessor is the latest-ending leaf that
/// finished at or before the current segment started. Gaps between
/// segments are coordination wait: scheduling, queueing, SVD thinking
/// time.
fn critical_path(spans: &[LoadedSpan]) -> CriticalPath {
    let leaves: Vec<&LoadedSpan> = spans
        .iter()
        .filter(|s| {
            !spans.iter().any(|o| {
                o.lane == s.lane
                    && (o.start_ns, o.end_ns) != (s.start_ns, s.end_ns)
                    && o.start_ns >= s.start_ns
                    && o.end_ns <= s.end_ns
            })
        })
        .collect();
    let mut visited = vec![false; leaves.len()];
    let Some(mut cur) = (0..leaves.len()).max_by_key(|&i| (leaves[i].end_ns, leaves[i].start_ns))
    else {
        return CriticalPath::default();
    };
    visited[cur] = true;
    let mut chain = vec![cur];
    loop {
        let pred = (0..leaves.len())
            .filter(|&i| !visited[i] && leaves[i].end_ns <= leaves[cur].start_ns)
            .max_by_key(|&i| (leaves[i].end_ns, leaves[i].start_ns));
        match pred {
            Some(p) => {
                visited[p] = true;
                cur = p;
                chain.push(cur);
            }
            None => break,
        }
    }
    chain.reverse();
    let mut segments = Vec::with_capacity(chain.len());
    let mut busy = 0u64;
    let mut wait = 0u64;
    let mut prev_end: Option<u64> = None;
    for s in chain.into_iter().map(|i| leaves[i]) {
        let gap = prev_end.map_or(0, |pe| s.start_ns.saturating_sub(pe));
        busy += s.duration_ns();
        wait += gap;
        segments.push(CriticalSegment {
            lane: s.lane.clone(),
            key: format!("{}/{}", s.cat, s.name),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            wait_before_ns: gap,
        });
        prev_end = Some(s.end_ns);
    }
    CriticalPath { segments, busy_ns: busy, wait_ns: wait }
}

/// Aggregate view of one execution layer (lane group).
#[derive(Debug, Clone, PartialEq)]
pub struct LaneGroupStat {
    /// Group name: `mtc` or `sim`.
    pub group: String,
    /// Distinct lanes seen in the group.
    pub lanes: usize,
    /// Wall-clock window covered by the group's events (ns).
    pub span_ns: u64,
    /// Summed duration of the group's leaf `task` spans (ns).
    pub busy_ns: u64,
    /// Closed `task` spans in the group.
    pub tasks: u64,
}

fn group_of(lane: &str) -> Option<&'static str> {
    if lane == "coordinator" || lane.starts_with("worker-") {
        Some("mtc")
    } else if lane.starts_with("core-") {
        Some("sim")
    } else {
        None
    }
}

fn lane_groups(events: &[LoadedEvent], spans: &[LoadedSpan]) -> Vec<LaneGroupStat> {
    let mut window: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut lanes: BTreeMap<&'static str, std::collections::BTreeSet<&str>> = BTreeMap::new();
    for e in events {
        if let Some(g) = group_of(&e.lane) {
            let w = window.entry(g).or_insert((e.ts_ns, e.ts_ns));
            w.0 = w.0.min(e.ts_ns);
            w.1 = w.1.max(e.ts_ns);
            lanes.entry(g).or_default().insert(&e.lane);
        }
    }
    let mut busy: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        if s.cat != "task" {
            continue;
        }
        if let Some(g) = group_of(&s.lane) {
            let b = busy.entry(g).or_insert((0, 0));
            b.0 += s.duration_ns();
            b.1 += 1;
        }
    }
    window
        .into_iter()
        .map(|(g, (lo, hi))| {
            let (busy_ns, tasks) = busy.get(g).copied().unwrap_or((0, 0));
            LaneGroupStat {
                group: g.to_string(),
                lanes: lanes.get(g).map_or(0, |s| s.len()),
                span_ns: hi - lo,
                busy_ns,
                tasks,
            }
        })
        .collect()
}

/// Member count carried by the `workflow/resumed` instant the engine
/// emits when a run rehydrates from a checkpoint, if present.
fn resumed_members(events: &[LoadedEvent]) -> Option<u64> {
    events
        .iter()
        .find(|e| {
            matches!(e.kind, LoadedKind::Instant) && e.cat == "workflow" && e.name == "resumed"
        })
        .and_then(|e| e.args.get("members").and_then(Value::as_u64))
}

/// Lease and fencing event counts from the coordinator's `pool`-category
/// instants — the task-pool health summary of a decoupled-worker run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolEvents {
    /// Tasks durably seeded (initial + epoch-bumped requeues).
    pub tasks_seeded: u64,
    /// Claims first observed alive (leases granted).
    pub leases_granted: u64,
    /// Leases that stopped heartbeating and were reclaimed.
    pub leases_expired: u64,
    /// Stale-epoch results rejected by fencing.
    pub fencing_rejected: u64,
    /// Results accepted into the run.
    pub results_ingested: u64,
    /// Local fleet workers (re)spawned by the coordinator.
    pub workers_spawned: u64,
    /// Members quarantined by the semantic ingestion gate (coordinator
    /// `fault/member_quarantined` instants).
    pub members_quarantined: u64,
    /// Replacement tasks scheduled for quarantined members.
    pub replacements_scheduled: u64,
    /// Worker self-check rejections (`fault/self_reject` instants from
    /// merged worker lanes — the upload-saving REJECTED publishes).
    pub self_rejections: u64,
}

impl PoolEvents {
    /// Did the trace carry any pool events at all? (A serial or
    /// pre-pool trace reports nothing rather than a row of zeros.)
    pub fn any(&self) -> bool {
        self.tasks_seeded
            + self.leases_granted
            + self.leases_expired
            + self.fencing_rejected
            + self.results_ingested
            + self.workers_spawned
            + self.members_quarantined
            + self.replacements_scheduled
            + self.self_rejections
            > 0
    }
}

/// Connection and fencing event counts from the coordinator's
/// `net`-category instants — the transport health summary of a run
/// served over the esse-net TCP protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetEvents {
    /// Remote workers whose handshake was accepted.
    pub connects: u64,
    /// Connections closed for any reason (worker exit, kill, reconnect).
    pub disconnects: u64,
    /// Handshakes refused (protocol or config-hash mismatch).
    pub rejects: u64,
    /// Advisory `Fenced` replies sent to workers holding a stale claim.
    pub fenced: u64,
}

impl NetEvents {
    /// Did the trace carry any net events at all? (A disk-transport or
    /// serial run reports nothing rather than a row of zeros.)
    pub fn any(&self) -> bool {
        self.connects + self.disconnects + self.rejects + self.fenced > 0
    }
}

fn net_events(events: &[LoadedEvent]) -> NetEvents {
    let mut n = NetEvents::default();
    for e in events {
        if e.kind != LoadedKind::Instant || e.cat != "net" {
            continue;
        }
        match e.name.as_str() {
            "net_connect" => n.connects += 1,
            "net_disconnect" => n.disconnects += 1,
            "net_reject" => n.rejects += 1,
            "net_fenced" => n.fenced += 1,
            _ => {}
        }
    }
    n
}

fn pool_events(events: &[LoadedEvent]) -> PoolEvents {
    let mut p = PoolEvents::default();
    for e in events {
        if e.kind != LoadedKind::Instant {
            continue;
        }
        match (e.cat.as_str(), e.name.as_str()) {
            ("pool", "task_seeded") => p.tasks_seeded += 1,
            ("pool", "lease_granted") => p.leases_granted += 1,
            ("pool", "lease_expired") => p.leases_expired += 1,
            ("pool", "fencing_rejected") => p.fencing_rejected += 1,
            ("pool", "result_ingested") => p.results_ingested += 1,
            ("pool", "worker_spawned") => p.workers_spawned += 1,
            ("pool", "replacement_scheduled") => p.replacements_scheduled += 1,
            // The semantic-fault lane: coordinator quarantines and
            // (merged from worker lanes) worker self-check rejections.
            ("fault", "member_quarantined") => p.members_quarantined += 1,
            ("fault", "self_reject") => p.self_rejections += 1,
            _ => {}
        }
    }
    p
}

/// Latency statistics for one kind of cross-process edge in a merged
/// fleet trace (e.g. enqueue→claim), in rebased coordinator time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStat {
    /// Edges with both endpoints present in the trace.
    pub count: u64,
    /// Mean edge latency (ns; negative rebased deltas clamp to 0).
    pub mean_ns: u64,
    /// Largest edge latency (ns).
    pub max_ns: u64,
}

/// (count, summed ns, max ns) accumulator for one edge kind.
#[derive(Default, Clone, Copy)]
struct EdgeAcc {
    count: u64,
    total: u128,
    max: u64,
}

impl EdgeAcc {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total += ns as u128;
        self.max = self.max.max(ns);
    }

    fn finish(self) -> Option<EdgeStat> {
        (self.count > 0).then(|| EdgeStat {
            count: self.count,
            mean_ns: (self.total / self.count as u128) as u64,
            max_ns: self.max,
        })
    }
}

/// One worker of the merged fleet: clock alignment plus the
/// utilization and phase breakdown of its rebased lane.
#[derive(Debug, Clone, Default)]
pub struct WorkerFleetStat {
    /// Worker id (the `worker-N` lane).
    pub worker: u64,
    /// Estimated clock offset vs the coordinator (ns, coordinator −
    /// worker, midpoint of the feasible interval).
    pub offset_ns: f64,
    /// Half-width of the feasible offset interval (ns).
    pub uncertainty_ns: f64,
    /// Whether any exchange bounded the offset from both sides (a TCP
    /// in-exchange probe); one-sided disk bounds leave this false.
    pub constrained: bool,
    /// Spans merged from this worker's batches.
    pub spans: u64,
    /// Batches merged.
    pub batches: u64,
    /// Events this worker's bounded ring discarded before shipping.
    pub dropped: u64,
    /// Closed remote `task` spans on the lane.
    pub tasks: u64,
    /// Summed remote `task` span time (ns).
    pub busy_ns: u64,
    /// First-to-last event window of the lane (ns).
    pub window_ns: u64,
    /// Per-phase breakdown of the lane's spans, largest total first.
    pub phases: Vec<PhaseStat>,
}

impl WorkerFleetStat {
    /// Fraction of the worker's own window spent inside task spans.
    pub fn utilization(&self) -> f64 {
        if self.window_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.window_ns as f64
        }
    }
}

/// The fleet view of a merged distributed trace: per-worker clock
/// alignment and utilization, cross-process edge latencies, and the
/// orphan-edge count that validates the merged DAG.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Per-worker rollups, ascending worker id (one entry per
    /// `fleet/worker_offset` instant the merge emitted).
    pub workers: Vec<WorkerFleetStat>,
    /// enqueue→claim edges: coordinator `task_seeded` to the rebased
    /// start of the worker's task span for the same (member, epoch).
    pub enqueue_to_claim: Option<EdgeStat>,
    /// publish→ingest edges: rebased end of the worker's task span to
    /// the coordinator's `result_ingested` for the same (member, epoch).
    pub publish_to_ingest: Option<EdgeStat>,
    /// Remote task spans merged into the trace (all workers).
    pub remote_tasks: u64,
    /// Remote task spans whose (member, epoch) was never seeded by this
    /// trace's coordinator, or whose recorded parent span id does not
    /// match the id the coordinator assigned at enqueue. A valid merge
    /// has zero; absent batches (a SIGKILL'd worker) add none.
    pub orphan_edges: u64,
    /// Coordinator incarnations that announced a restart in this trace
    /// (`coordinator/restart` instants), ascending. Empty for a run
    /// that was never resumed.
    pub restarts: Vec<u64>,
    /// Remote task spans grouped by the coordinator incarnation whose
    /// `task_seeded` instant anchors them (incarnation 1 when the seed
    /// carries no label), ascending by incarnation. Labels the merged
    /// timeline across a crash-and-restart boundary.
    pub tasks_by_incarnation: Vec<(u64, u64)>,
}

impl FleetStats {
    /// Did the trace carry a merged fleet at all? (A single-process or
    /// tracing-off trace reports nothing rather than rows of zeros.)
    pub fn any(&self) -> bool {
        !self.workers.is_empty() || self.remote_tasks > 0
    }
}

/// Remote task spans are distinguished from engine-local `task` spans
/// by the `run` argument the worker stamps from the manifest's trace
/// run id — no local recorder writes it.
fn is_remote_task(s: &LoadedSpan) -> bool {
    s.cat == "task" && s.name == "task" && s.args.contains_key("run")
}

fn fleet_stats(events: &[LoadedEvent], spans: &[LoadedSpan]) -> FleetStats {
    let mut fleet = FleetStats::default();
    for e in events {
        if e.kind == LoadedKind::Instant && e.cat == "fleet" && e.name == "worker_offset" {
            let Some(worker) = e.arg_u64("worker") else { continue };
            fleet.workers.push(WorkerFleetStat {
                worker,
                offset_ns: e.arg_f64("offset_ns").unwrap_or(0.0),
                uncertainty_ns: e.arg_f64("uncertainty_ns").unwrap_or(0.0),
                constrained: matches!(e.args.get("constrained"), Some(Value::Bool(true))),
                spans: e.arg_u64("spans").unwrap_or(0),
                batches: e.arg_u64("batches").unwrap_or(0),
                dropped: e.arg_u64("dropped").unwrap_or(0),
                ..WorkerFleetStat::default()
            });
        }
    }
    if fleet.workers.is_empty() && !spans.iter().any(is_remote_task) {
        return fleet;
    }
    fleet.workers.sort_by_key(|w| w.worker);
    fleet.workers.dedup_by_key(|w| w.worker);

    for w in &mut fleet.workers {
        let lane = format!("worker-{}", w.worker);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in events.iter().filter(|e| e.lane == lane) {
            lo = lo.min(e.ts_ns);
            hi = hi.max(e.ts_ns);
        }
        if lo != u64::MAX {
            w.window_ns = hi - lo;
        }
        let lane_spans: Vec<LoadedSpan> =
            spans.iter().filter(|s| s.lane == lane).cloned().collect();
        for s in &lane_spans {
            if is_remote_task(s) {
                w.tasks += 1;
                w.busy_ns += s.duration_ns();
            }
        }
        w.phases = phase_breakdown(&lane_spans);
    }

    // Cross-process edges + DAG validation against the coordinator's
    // own enqueue/ingest instants.
    let mut seeded: BTreeMap<(u64, u64), (u64, u64, u64)> = BTreeMap::new();
    let mut ingested: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for e in events {
        if e.kind != LoadedKind::Instant {
            continue;
        }
        if e.cat == "coordinator" && e.name == "restart" {
            if let Some(inc) = e.arg_u64("incarnation") {
                fleet.restarts.push(inc);
            }
            continue;
        }
        if e.cat != "pool" {
            continue;
        }
        let (Some(m), Some(ep)) = (e.arg_u64("member"), e.arg_u64("epoch")) else {
            continue;
        };
        match e.name.as_str() {
            "task_seeded" => {
                let inc = e.arg_u64("incarnation").unwrap_or(1);
                seeded.insert((m, ep), (e.ts_ns, e.arg_u64("span").unwrap_or(0), inc));
            }
            "result_ingested" => {
                ingested.entry((m, ep)).or_insert(e.ts_ns);
            }
            _ => {}
        }
    }
    fleet.restarts.sort_unstable();
    fleet.restarts.dedup();
    let mut claim_edge = EdgeAcc::default();
    let mut ingest_edge = EdgeAcc::default();
    for s in spans.iter().filter(|s| is_remote_task(s)) {
        fleet.remote_tasks += 1;
        let member = s.args.get("member").and_then(Value::as_u64);
        let epoch = s.args.get("epoch").and_then(Value::as_u64);
        let (Some(m), Some(ep)) = (member, epoch) else {
            fleet.orphan_edges += 1;
            continue;
        };
        match seeded.get(&(m, ep)) {
            None => fleet.orphan_edges += 1,
            Some(&(t_seed, span, inc)) => {
                let parent = s.args.get("parent").and_then(Value::as_u64).unwrap_or(0);
                if span != 0 && parent != 0 && span != parent {
                    fleet.orphan_edges += 1;
                } else {
                    claim_edge.record(s.start_ns.saturating_sub(t_seed));
                    match fleet.tasks_by_incarnation.binary_search_by_key(&inc, |&(i, _)| i) {
                        Ok(i) => fleet.tasks_by_incarnation[i].1 += 1,
                        Err(i) => fleet.tasks_by_incarnation.insert(i, (inc, 1)),
                    }
                }
            }
        }
        if let Some(&t_in) = ingested.get(&(m, ep)) {
            ingest_edge.record(t_in.saturating_sub(s.end_ns));
        }
    }
    fleet.enqueue_to_claim = claim_edge.finish();
    fleet.publish_to_ingest = ingest_edge.finish();
    fleet
}

fn final_counters(events: &[LoadedEvent]) -> Vec<(String, f64)> {
    let mut last: BTreeMap<String, f64> = BTreeMap::new();
    for e in events {
        if let LoadedKind::Counter(v) = e.kind {
            last.insert(e.name.clone(), v);
        }
    }
    last.into_iter().collect()
}

/// Everything the analyzer computed for one trace.
#[derive(Debug, Clone)]
pub struct RunAnalysis {
    /// First-to-last event time (ns).
    pub makespan_ns: u64,
    /// Per-phase breakdown, largest total first.
    pub phases: Vec<PhaseStat>,
    /// Queue-wait decomposition, when the trace carries `sched/enqueued`
    /// instants.
    pub queue_wait: Option<WaitStats>,
    /// Task completions per time window.
    pub throughput: Vec<ThroughputWindow>,
    /// Tasks that ran far beyond the mean, slowest first.
    pub stragglers: Vec<Straggler>,
    /// Longest dependency chain of leaf spans.
    pub critical_path: CriticalPath,
    /// Per-execution-layer aggregates (`serial`, `mtc`, `sim`).
    pub lane_groups: Vec<LaneGroupStat>,
    /// Final value of every counter stream.
    pub counters: Vec<(String, f64)>,
    /// Closed `task` spans in the whole trace.
    pub task_count: usize,
    /// Members rehydrated from a checkpoint, when the trace carries the
    /// engine's `workflow/resumed` instant (a recovered run).
    pub resumed_members: Option<u64>,
    /// Task-pool lease/fencing event counts (all zero for traces
    /// predating the decoupled pool).
    pub pool: PoolEvents,
    /// TCP-transport connection/fencing event counts (all zero for
    /// disk-transport runs).
    pub net: NetEvents,
    /// Merged-fleet view: per-worker clock offsets, utilization and
    /// phase breakdowns, cross-process edges, orphan-edge validation.
    pub fleet: FleetStats,
}

impl RunAnalysis {
    /// The lane group named `group`, if present.
    pub fn group(&self, group: &str) -> Option<&LaneGroupStat> {
        self.lane_groups.iter().find(|g| g.group == group)
    }

    /// Final value of the counter `name`, if any sample was recorded.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// True when the critical path runs through at least one span on a
    /// merged worker lane — the end-to-end chain crosses the process
    /// boundary instead of stopping at the coordinator's own events.
    pub fn critical_path_crosses_fleet(&self) -> bool {
        self.critical_path.segments.iter().any(|s| s.lane.starts_with("worker-"))
    }

    /// Peak single-window task throughput in tasks/second.
    pub fn peak_throughput_per_s(&self) -> f64 {
        self.throughput
            .iter()
            .map(|w| w.completions as f64 / (w.width_ns.max(1) as f64 / 1e9))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Lane;
    use crate::recorder::{Recorder, RecorderExt};
    use crate::ring::RingRecorder;

    /// Four members on two workers after their enqueue instants.
    fn pool_trace() -> LoadedTrace {
        let rec = RingRecorder::new();
        for m in 0..4u64 {
            rec.instant_at(400, Lane::Coordinator, "sched", "enqueued", vec![("member", m.into())]);
        }
        for m in 0..4u64 {
            let lane = Lane::Worker((m % 2) as u32);
            let start = 410 + (m / 2) * 110;
            rec.begin_at(start, lane, "task", "member", vec![("member", m.into())]);
            rec.end_at(start + 100, lane, "task", "member");
        }
        rec.begin_at(640, Lane::Coordinator, "svd", "svd", vec![]);
        rec.end_at(660, Lane::Coordinator, "svd", "svd");
        rec.counter_at(660, Lane::Coordinator, "members_done", 4.0);
        LoadedTrace::from_trace(&rec.drain())
    }

    #[test]
    fn jsonl_roundtrip_preserves_events() {
        let rec = RingRecorder::new();
        rec.begin_at(5, Lane::Worker(3), "task", "member", vec![("member", 7u64.into())]);
        rec.end_at(25, Lane::Worker(3), "task", "member");
        rec.instant_at(
            25,
            Lane::Coordinator,
            "svd",
            "convergence_check",
            vec![("rho", 0.5.into())],
        );
        rec.counter_at(30, Lane::Coordinator, "members_done", 1.0);
        rec.observe("member", 20);
        let tr = rec.drain();
        let jsonl = crate::export::jsonl_string(&tr);
        let loaded = LoadedTrace::from_jsonl(&jsonl).unwrap();
        assert_eq!(loaded.events.len(), tr.events.len());
        assert_eq!(loaded.histograms.len(), 1);
        let spans = loaded.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, "worker-3");
        assert_eq!(spans[0].duration_ns(), 20);
        assert_eq!(spans[0].args.get("member").and_then(Value::as_u64), Some(7));
        // Same analysis from either representation.
        let live = LoadedTrace::from_trace(&tr).analyze();
        let reloaded = loaded.analyze();
        assert_eq!(live.makespan_ns, reloaded.makespan_ns);
        assert_eq!(live.phases, reloaded.phases);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(LoadedTrace::from_jsonl("{not json}").is_err());
        assert!(LoadedTrace::from_jsonl("{\"kind\":\"mystery\"}").is_err());
        assert!(
            LoadedTrace::from_jsonl("{\"kind\":\"meta\",\"schema\":\"other-v9\"}").is_err(),
            "schema drift must not be silent"
        );
        assert!(LoadedTrace::from_jsonl("{\"kind\":\"begin\",\"lane\":\"driver\"}").is_err());
    }

    #[test]
    fn phase_breakdown_and_lane_groups() {
        let a = pool_trace().analyze();
        // 4 member spans and one svd span.
        assert_eq!(a.task_count, 4);
        let member = a.phases.iter().find(|p| p.key == "task/member").unwrap();
        assert_eq!(member.count, 4);
        assert_eq!(member.mean_ns, 100);
        assert!(a.phases.iter().any(|p| p.key == "svd/svd"));
        // MTC window 400..660 = 260ns, and no other layer.
        let mtc = a.group("mtc").unwrap();
        assert_eq!(a.lane_groups.len(), 1);
        assert_eq!(mtc.span_ns, 260);
        assert_eq!(mtc.tasks, 4);
        assert_eq!(mtc.lanes, 3); // coordinator + 2 workers
        assert_eq!(a.counter("members_done"), Some(4.0));
    }

    #[test]
    fn queue_wait_decomposition() {
        let a = pool_trace().analyze();
        let w = a.queue_wait.unwrap();
        // Members 0/1 wait 10ns, members 2/3 wait 120ns.
        assert_eq!(w.count, 4);
        assert!(w.mean_ns >= 10 && w.mean_ns <= 120, "mean {}", w.mean_ns);
        assert_eq!(w.max_ns, 120);
        assert!(w.p99_ns >= 120, "p99 {}", w.p99_ns);
    }

    #[test]
    fn critical_path_chains_leaf_spans() {
        let rec = RingRecorder::new();
        // An enclosing phase span that must NOT appear on the path.
        rec.begin_at(0, Lane::Driver, "phase", "stage", vec![]);
        rec.begin_at(5, Lane::Driver, "task", "member", vec![]);
        rec.end_at(100, Lane::Driver, "task", "member");
        rec.end_at(110, Lane::Driver, "phase", "stage");
        // Dependent work with a 20ns coordination gap.
        rec.begin_at(120, Lane::Coordinator, "svd", "svd", vec![]);
        rec.end_at(150, Lane::Coordinator, "svd", "svd");
        let cp = LoadedTrace::from_trace(&rec.drain()).analyze().critical_path;
        let keys: Vec<&str> = cp.segments.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, ["task/member", "svd/svd"]);
        assert_eq!(cp.busy_ns, 125);
        assert_eq!(cp.wait_ns, 20);
        assert_eq!(cp.segments[1].wait_before_ns, 20);
    }

    #[test]
    fn stragglers_and_throughput() {
        let rec = RingRecorder::new();
        for m in 0..9u64 {
            rec.begin_at(m * 10, Lane::Worker(0), "task", "member", vec![("member", m.into())]);
            rec.end_at(m * 10 + 10, Lane::Worker(0), "task", "member");
        }
        // One 10x-slower attempt.
        rec.begin_at(100, Lane::Worker(1), "task", "member", vec![("member", 9u64.into())]);
        rec.end_at(200, Lane::Worker(1), "task", "member");
        let a = LoadedTrace::from_trace(&rec.drain())
            .analyze_with(AnalyzeOptions { window_ns: 50, straggler_factor: 2.0 });
        assert_eq!(a.stragglers.len(), 1);
        assert_eq!(a.stragglers[0].member, Some(9));
        assert!(a.stragglers[0].factor > 4.0);
        let total: u64 = a.throughput.iter().map(|w| w.completions).sum();
        assert_eq!(total, 10);
        assert!(a.peak_throughput_per_s() > 0.0);
    }

    #[test]
    fn pool_events_rollup_counts_lease_lifecycle() {
        let rec = RingRecorder::new();
        let pool_instant = |t: u64, name: &'static str, m: u64| {
            rec.instant_at(t, Lane::Coordinator, "pool", name, vec![("member", m.into())]);
        };
        pool_instant(0, "task_seeded", 0);
        pool_instant(1, "task_seeded", 1);
        pool_instant(2, "lease_granted", 0);
        pool_instant(3, "lease_expired", 0);
        pool_instant(4, "task_seeded", 0); // the epoch-bumped requeue
        pool_instant(5, "fencing_rejected", 0);
        pool_instant(6, "result_ingested", 0);
        pool_instant(7, "result_ingested", 1);
        // The semantic-fault lane: a coordinator quarantine with its
        // replacement, and a worker-side self-check rejection.
        rec.instant_at(8, Lane::Coordinator, "fault", "member_quarantined", vec![]);
        pool_instant(9, "replacement_scheduled", 1);
        rec.instant_at(10, Lane::Worker(0), "fault", "self_reject", vec![]);
        let a = LoadedTrace::from_trace(&rec.drain()).analyze();
        assert!(a.pool.any());
        assert_eq!(a.pool.tasks_seeded, 3);
        assert_eq!(a.pool.leases_granted, 1);
        assert_eq!(a.pool.leases_expired, 1);
        assert_eq!(a.pool.fencing_rejected, 1);
        assert_eq!(a.pool.results_ingested, 2);
        assert_eq!(a.pool.workers_spawned, 0);
        assert_eq!(a.pool.members_quarantined, 1);
        assert_eq!(a.pool.replacements_scheduled, 1);
        assert_eq!(a.pool.self_rejections, 1);
        // A pool-free trace reports nothing.
        assert!(!pool_trace().analyze().pool.any());
    }

    #[test]
    fn net_events_rollup_counts_connection_lifecycle() {
        let rec = RingRecorder::new();
        let net_instant = |t: u64, name: &'static str, w: u64| {
            rec.instant_at(t, Lane::Coordinator, "net", name, vec![("worker", w.into())]);
        };
        net_instant(0, "net_connect", 0);
        net_instant(1, "net_connect", 1);
        net_instant(2, "net_reject", 2);
        net_instant(3, "net_fenced", 0);
        net_instant(4, "net_disconnect", 1);
        net_instant(5, "net_connect", 1); // the reconnect after grace
        let a = LoadedTrace::from_trace(&rec.drain()).analyze();
        assert!(a.net.any());
        assert_eq!(a.net.connects, 3);
        assert_eq!(a.net.disconnects, 1);
        assert_eq!(a.net.rejects, 1);
        assert_eq!(a.net.fenced, 1);
        // A disk-transport trace reports nothing.
        assert!(!pool_trace().analyze().net.any());
    }

    /// A miniature merged fleet trace: coordinator seeds two tasks with
    /// assigned span ids, one worker lane carries the rebased remote
    /// task+phase spans, and the merge's `fleet/worker_offset` instant
    /// closes the books.
    fn merged_fleet_trace(parent_of: impl Fn(u64) -> u64) -> LoadedTrace {
        let rec = RingRecorder::new();
        for m in 0..2u64 {
            rec.instant_at(
                m * 10,
                Lane::Coordinator,
                "pool",
                "task_seeded",
                vec![("member", m.into()), ("epoch", 1u64.into()), ("span", (0x100 + m).into())],
            );
        }
        for m in 0..2u64 {
            let t = 100 + m * 200;
            let args = vec![
                ("member", m.into()),
                ("epoch", 1u64.into()),
                ("parent", parent_of(m).into()),
                ("run", 0xAB1u64.into()),
                ("worker", 7u64.into()),
            ];
            rec.begin_at(t, Lane::Worker(7), "task", "task", args);
            rec.begin_at(t + 5, Lane::Worker(7), "phase", "pemodel", vec![("member", m.into())]);
            rec.end_at(t + 95, Lane::Worker(7), "phase", "pemodel");
            rec.end_at(t + 100, Lane::Worker(7), "task", "task");
            rec.instant_at(
                t + 150,
                Lane::Coordinator,
                "pool",
                "result_ingested",
                vec![("member", m.into()), ("epoch", 1u64.into())],
            );
        }
        rec.instant_at(
            500,
            Lane::Coordinator,
            "fleet",
            "worker_offset",
            vec![
                ("worker", 7u64.into()),
                ("offset_ns", (-25.0).into()),
                ("uncertainty_ns", 40.0.into()),
                ("spans", 6u64.into()),
                ("batches", 2u64.into()),
                ("dropped", 0u64.into()),
                ("constrained", true.into()),
            ],
        );
        LoadedTrace::from_trace(&rec.drain())
    }

    #[test]
    fn fleet_stats_from_merged_trace() {
        let a = merged_fleet_trace(|m| 0x100 + m).analyze();
        assert!(a.fleet.any());
        assert_eq!(a.fleet.workers.len(), 1);
        let w = &a.fleet.workers[0];
        assert_eq!(w.worker, 7);
        assert_eq!(w.offset_ns, -25.0);
        assert!(w.constrained);
        assert_eq!(w.tasks, 2);
        assert_eq!(w.busy_ns, 200);
        assert!(w.utilization() > 0.0);
        assert!(w.phases.iter().any(|p| p.key == "phase/pemodel"));
        assert_eq!(a.fleet.remote_tasks, 2);
        assert_eq!(a.fleet.orphan_edges, 0, "matching parents must not orphan");
        // Edges: enqueue→claim = 100 and 290; publish→ingest = 50 both.
        let enq = a.fleet.enqueue_to_claim.unwrap();
        assert_eq!(enq.count, 2);
        assert_eq!(enq.max_ns, 290);
        let ing = a.fleet.publish_to_ingest.unwrap();
        assert_eq!(ing.count, 2);
        assert_eq!(ing.mean_ns, 50);
        // The worker's phase spans are leaves, so the end-to-end chain
        // crosses the process boundary.
        assert!(a.critical_path_crosses_fleet());
        // A fleet-free trace reports nothing.
        assert!(!pool_trace().analyze().fleet.any());
    }

    #[test]
    fn mismatched_parent_span_is_an_orphan_edge() {
        let a = merged_fleet_trace(|m| 0x999 + m).analyze();
        assert_eq!(a.fleet.orphan_edges, 2);
        assert!(a.fleet.enqueue_to_claim.is_none(), "orphans contribute no claim edge");
        // Ingest edges key on (member, epoch) alone: a wrong parent is
        // a propagation bug, not a missing result.
        assert!(a.fleet.publish_to_ingest.is_some());
    }

    #[test]
    fn unseeded_remote_task_is_an_orphan_edge() {
        let rec = RingRecorder::new();
        rec.begin_at(
            10,
            Lane::Worker(3),
            "task",
            "task",
            vec![
                ("member", 5u64.into()),
                ("epoch", 2u64.into()),
                ("parent", 0x42u64.into()),
                ("run", 0xAB1u64.into()),
            ],
        );
        rec.end_at(60, Lane::Worker(3), "task", "task");
        let a = LoadedTrace::from_trace(&rec.drain()).analyze();
        assert!(a.fleet.any());
        assert_eq!(a.fleet.remote_tasks, 1);
        assert_eq!(a.fleet.orphan_edges, 1);
    }

    /// A resumed coordinator announces its incarnation and re-emits
    /// the seeds it inherited with an `incarnation` label; unlabelled
    /// seeds belong to the first incarnation. The fleet stats must
    /// attribute each remote task to its seeding incarnation.
    #[test]
    fn restart_instants_label_tasks_by_incarnation() {
        let rec = RingRecorder::new();
        let seed = |t: u64, m: u64, span: u64, inc: Option<u64>| {
            let mut args =
                vec![("member", m.into()), ("epoch", 1u64.into()), ("span", span.into())];
            if let Some(i) = inc {
                args.push(("incarnation", i.into()));
            }
            rec.instant_at(t, Lane::Coordinator, "pool", "task_seeded", args);
        };
        seed(0, 0, 0x100, None); // survived from the first incarnation
        rec.instant_at(
            5,
            Lane::Coordinator,
            "coordinator",
            "restart",
            vec![("incarnation", 3u64.into())],
        );
        seed(6, 1, 0x101, Some(3)); // re-emitted by the resumed master
        for m in 0..2u64 {
            let t = 10 + m * 100;
            rec.begin_at(
                t,
                Lane::Worker(4),
                "task",
                "task",
                vec![
                    ("member", m.into()),
                    ("epoch", 1u64.into()),
                    ("parent", (0x100 + m).into()),
                    ("run", 0xAB1u64.into()),
                ],
            );
            rec.end_at(t + 50, Lane::Worker(4), "task", "task");
        }
        let a = LoadedTrace::from_trace(&rec.drain()).analyze();
        assert_eq!(a.fleet.restarts, vec![3]);
        assert_eq!(a.fleet.tasks_by_incarnation, vec![(1, 1), (3, 1)]);
        assert_eq!(a.fleet.orphan_edges, 0);
        // A never-resumed trace reports no restarts at all.
        let plain = merged_fleet_trace(|m| 0x100 + m).analyze();
        assert!(plain.fleet.restarts.is_empty());
        assert_eq!(plain.fleet.tasks_by_incarnation, vec![(1, 2)]);
    }

    #[test]
    fn empty_trace_analyzes_cleanly() {
        let a = LoadedTrace::default().analyze();
        assert_eq!(a.makespan_ns, 0);
        assert!(a.phases.is_empty());
        assert!(a.queue_wait.is_none());
        assert!(a.critical_path.segments.is_empty());
    }
}
