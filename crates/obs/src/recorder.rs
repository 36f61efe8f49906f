//! The [`Recorder`] trait, the no-op recorder, and RAII span guards.

use crate::event::{ArgValue, Event, EventKind, Lane};

/// A sink for trace events.
///
/// The engine layers (`esse-mtc::workflow`, `esse-mtc::sim`) hold a
/// `&dyn Recorder` and call it on task pickup/finish, SVD rounds,
/// convergence, scheduler decisions, etc.
/// Implementations must be cheap and thread-safe; hot paths first check
/// [`Recorder::enabled`] so the disabled path is a single virtual call
/// and a branch, with no allocation.
pub trait Recorder: Sync {
    /// Whether events are being kept. Hot paths skip event construction
    /// (and its `Vec` of args) entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Nanoseconds since this recorder's epoch. Real-clock recorders
    /// measure from creation; the no-op recorder returns 0; virtual-clock
    /// producers (the simulator) never call this and stamp events
    /// themselves.
    fn now_ns(&self) -> u64;

    /// Record one event. `ev.seq` is assigned by the recorder.
    fn record(&self, ev: Event);

    /// Feed one latency observation (nanoseconds) into the log-bucketed
    /// histogram named `name`.
    fn observe(&self, name: &'static str, latency_ns: u64);
}

/// The recorder that records nothing. `enabled()` is `false`, so callers
/// skip event construction and the instrumented hot paths reduce to a
/// branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn now_ns(&self) -> u64 {
        0
    }
    fn record(&self, _ev: Event) {}
    fn observe(&self, _name: &'static str, _latency_ns: u64) {}
}

/// A shared no-op recorder, the default for every engine.
pub static NULL: NullRecorder = NullRecorder;

/// Convenience constructors for events; blanket-implemented for every
/// recorder (including `&dyn Recorder`).
pub trait RecorderExt: Recorder {
    /// Open a span at an explicit timestamp (engines that keep their own
    /// clock, e.g. the workflow's `t0`-relative bookkeeping, or the
    /// simulator's virtual clock).
    fn begin_at(
        &self,
        ts_ns: u64,
        lane: Lane,
        cat: &'static str,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.record(Event { ts_ns, seq: 0, lane, cat, name, kind: EventKind::Begin, args });
    }

    /// Close the innermost open span on `lane` at an explicit timestamp.
    fn end_at(&self, ts_ns: u64, lane: Lane, cat: &'static str, name: &'static str) {
        self.record(Event {
            ts_ns,
            seq: 0,
            lane,
            cat,
            name,
            kind: EventKind::End,
            args: Vec::new(),
        });
    }

    /// Record a point event at an explicit timestamp.
    fn instant_at(
        &self,
        ts_ns: u64,
        lane: Lane,
        cat: &'static str,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.record(Event { ts_ns, seq: 0, lane, cat, name, kind: EventKind::Instant, args });
    }

    /// Record a counter sample at an explicit timestamp.
    fn counter_at(&self, ts_ns: u64, lane: Lane, name: &'static str, value: f64) {
        self.record(Event {
            ts_ns,
            seq: 0,
            lane,
            cat: "counter",
            name,
            kind: EventKind::Counter(value),
            args: Vec::new(),
        });
    }

    /// Open a scoped span on the recorder's own clock; the span closes
    /// (and its duration feeds the `name` latency histogram) when the
    /// returned guard drops.
    fn span(
        &self,
        lane: Lane,
        cat: &'static str,
        name: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) -> SpanGuard<'_, Self> {
        let begin_ns = self.now_ns();
        if self.enabled() {
            self.begin_at(begin_ns, lane, cat, name, args);
        }
        SpanGuard { rec: self, lane, cat, name, begin_ns }
    }
}

impl<R: Recorder + ?Sized> RecorderExt for R {}

/// RAII guard for a span opened with [`RecorderExt::span`]. Closes the
/// span on drop and records its duration in the latency histogram named
/// after the span.
pub struct SpanGuard<'r, R: Recorder + ?Sized> {
    rec: &'r R,
    lane: Lane,
    cat: &'static str,
    name: &'static str,
    begin_ns: u64,
}

impl<R: Recorder + ?Sized> Drop for SpanGuard<'_, R> {
    fn drop(&mut self) {
        if self.rec.enabled() {
            let now = self.rec.now_ns();
            self.rec.end_at(now, self.lane, self.cat, self.name);
            self.rec.observe(self.name, now.saturating_sub(self.begin_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::RingRecorder;

    #[test]
    fn null_recorder_is_disabled_and_silent() {
        assert!(!NULL.enabled());
        NULL.record(Event {
            ts_ns: 1,
            seq: 0,
            lane: Lane::Driver,
            cat: "x",
            name: "y",
            kind: EventKind::Instant,
            args: vec![],
        });
        NULL.observe("z", 5);
        assert_eq!(NULL.now_ns(), 0);
    }

    #[test]
    fn span_guard_emits_balanced_pair_and_histogram() {
        let rec = RingRecorder::new();
        {
            let _g = rec.span(Lane::Driver, "phase", "stage", vec![("target", 8u64.into())]);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let trace = rec.drain();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].kind, EventKind::Begin);
        assert_eq!(trace.events[1].kind, EventKind::End);
        assert!(trace.events[1].ts_ns >= trace.events[0].ts_ns);
        let h = trace.histograms.get("stage").expect("histogram recorded");
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000_000, "slept 1ms, max {}", h.max());
    }

    #[test]
    fn dyn_recorder_works_through_ext_trait() {
        let ring = RingRecorder::new();
        let rec: &dyn Recorder = &ring;
        rec.instant_at(
            5,
            Lane::Coordinator,
            "convergence",
            "converged",
            vec![("rho", 0.99.into())],
        );
        let tr = ring.drain();
        assert_eq!(tr.events.len(), 1);
        assert_eq!(tr.events[0].name, "converged");
    }
}
