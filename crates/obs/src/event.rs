//! The trace event model shared by real-thread and simulated runs.
//!
//! One schema serves three clocks: the MTC engine's wall clock
//! (`Instant`-based, nanoseconds from workflow start), a harness's
//! recorder clock, and the discrete-event simulator's virtual
//! clock (seconds scaled to nanoseconds). All timestamps are `u64`
//! nanoseconds from the trace epoch, so exporters and timeline analysis
//! never need to know which kind of run produced the trace.

/// Where an event happened: one horizontal line of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// A single-threaded harness: benchmark loops and their probes.
    Driver,
    /// The MTC coordinator thread (differ / SVD / convergence).
    Coordinator,
    /// A real worker thread of the MTC pool.
    Worker(u32),
    /// A simulated core slot of the discrete-event cluster model.
    Slot(u32),
}

impl Lane {
    /// Stable thread id for trace viewers (`tid` in Chrome traces).
    pub fn tid(&self) -> u64 {
        match self {
            Lane::Driver => 0,
            Lane::Coordinator => 1,
            Lane::Worker(i) => 10 + *i as u64,
            Lane::Slot(i) => 1000 + *i as u64,
        }
    }

    /// Human-readable lane name for viewers and JSONL.
    pub fn label(&self) -> String {
        match self {
            Lane::Driver => "driver".to_string(),
            Lane::Coordinator => "coordinator".to_string(),
            Lane::Worker(i) => format!("worker-{i}"),
            Lane::Slot(i) => format!("core-{i}"),
        }
    }
}

/// An argument value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (member indices, rounds, counts).
    U64(u64),
    /// Float (similarities, fractions).
    F64(f64),
    /// Short string (outcomes, error messages).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// What kind of mark an event is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Start of a scoped span (matched LIFO per lane with [`EventKind::End`]).
    Begin,
    /// End of the innermost open span on the lane.
    End,
    /// A point-in-time marker (convergence fired, deadline expired...).
    Instant,
    /// A monotonic counter sample: the counter named `name` has this value.
    Counter(f64),
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds from the trace epoch (never negative, clock-monotone
    /// per producing thread).
    pub ts_ns: u64,
    /// Global record order, assigned by the recorder; breaks timestamp
    /// ties deterministically (a `Begin` recorded before an `End` at the
    /// same nanosecond sorts first).
    pub seq: u64,
    /// Timeline lane.
    pub lane: Lane,
    /// Category: `"task"`, `"svd"`, `"io"`, `"phase"`, `"sched"`, ...
    pub cat: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Mark kind.
    pub kind: EventKind,
    /// Attached key/value arguments.
    pub args: Vec<(&'static str, ArgValue)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_tids_are_disjoint() {
        let lanes = [
            Lane::Driver,
            Lane::Coordinator,
            Lane::Worker(0),
            Lane::Worker(9),
            Lane::Slot(0),
            Lane::Slot(500),
        ];
        let mut tids: Vec<u64> = lanes.iter().map(|l| l.tid()).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), lanes.len());
    }

    #[test]
    fn labels_name_the_index() {
        assert_eq!(Lane::Worker(3).label(), "worker-3");
        assert_eq!(Lane::Slot(17).label(), "core-17");
        assert_eq!(Lane::Driver.label(), "driver");
    }
}
