//! Adaptive ensemble sizing and completion policy (paper Fig. 3 loop and
//! §4.1 pool management).
//!
//! The serial algorithm doubles the ensemble (`N → N₂ ≤ Nmax`) whenever
//! the convergence test fails, until convergence, `Nmax`, or the
//! forecast deadline `Tmax` (a wall-clock budget the `esse-mtc`
//! coordinator enforces). The MTC pool variant over-provisions
//! (`M ≥ N`) so the SVD pipeline never drains, and decides what to do
//! with still-running members once converged.

/// Growth schedule for the ensemble size.
#[derive(Debug, Clone)]
pub struct EnsembleSchedule {
    /// Initial ensemble size N.
    pub initial: usize,
    /// Multiplicative growth factor (paper: 2 — "increase N to N2").
    pub growth: f64,
    /// Hard maximum Nmax.
    pub max: usize,
}

impl EnsembleSchedule {
    /// Paper-like default: start small, double, cap.
    pub fn new(initial: usize, max: usize) -> EnsembleSchedule {
        EnsembleSchedule { initial: initial.max(2), growth: 2.0, max: max.max(initial) }
    }

    /// The sequence of target sizes: `N, 2N, 4N, …, Nmax`.
    pub fn stages(&self) -> Vec<usize> {
        let mut out = vec![self.initial];
        loop {
            let last = *out.last().unwrap();
            if last >= self.max {
                break;
            }
            let next = ((last as f64 * self.growth).ceil() as usize).min(self.max);
            if next == last {
                break;
            }
            out.push(next);
        }
        out
    }
}

/// What to do with members still running when convergence is reached
/// (§4.1: "depending on the time constraints … and an associated policy").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompletionPolicy {
    /// Cancel everything pending/running and conclude immediately.
    CancelImmediately,
    /// Let members already *finished* be diffed, run one more SVD, use all
    /// available results; cancel the rest.
    UseCompleted,
    /// Additionally spare members close to finishing (needs runtime
    /// estimates; the fraction is "done if ≥ this share of expected
    /// runtime has elapsed").
    SpareNearlyDone(f64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_double_to_cap() {
        let s = EnsembleSchedule::new(100, 600);
        assert_eq!(s.stages(), vec![100, 200, 400, 600]);
    }

    #[test]
    fn minimum_two_members() {
        let s = EnsembleSchedule::new(1, 10);
        assert_eq!(s.initial, 2);
    }

    #[test]
    fn growth_factor_other_than_two() {
        let s = EnsembleSchedule { initial: 10, growth: 1.5, max: 40 };
        assert_eq!(s.stages(), vec![10, 15, 23, 35, 40]);
    }
}
