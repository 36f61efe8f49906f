//! The continuous "diff" stage: accumulate the normalized spread matrix
//! as ensemble members arrive, in any order.
//!
//! Paper §4.1: "we decouple the diff loop by having it run continuously,
//! adding new elements to the uncertainty covariance matrix as they
//! become available … we relax our requirement that elements of the
//! covariance matrix are in the order of the perturbation number and
//! instead keep track of which perturbation is added every time for
//! bookkeeping purposes."
//!
//! The accumulator stores difference columns `x_j − x_central` (the
//! normalization `1/√(N−1)` depends on the current count, so it is
//! applied on snapshot). [`SpreadAccumulator::snapshot`] plays the role
//! of the paper's *safe file* in the three-file protocol: a consistent
//! copy the SVD stage can read while new members keep arriving.

use esse_linalg::{Matrix, Svd};

/// Order-independent spread-matrix accumulator.
#[derive(Debug, Clone)]
pub struct SpreadAccumulator {
    central: Vec<f64>,
    /// Raw difference columns (unnormalized).
    diffs: Matrix,
    /// Perturbation index of each stored column (bookkeeping, §4.1).
    member_ids: Vec<usize>,
    /// Monotone version counter — bumped on every add (the "live file"
    /// generation number).
    version: u64,
}

/// A consistent snapshot of the spread matrix (the "safe file").
#[derive(Debug, Clone)]
pub struct SpreadSnapshot {
    /// Normalized spread matrix `M` with `M Mᵀ ≈ P` (n × N, scaled by
    /// `1/√(N−1)`).
    pub matrix: Matrix,
    /// Perturbation indices present, in arrival order.
    pub member_ids: Vec<usize>,
    /// Version of the accumulator this snapshot was taken at.
    pub version: u64,
}

impl SpreadAccumulator {
    /// New accumulator around the central (unperturbed) forecast.
    pub fn new(central_forecast: Vec<f64>) -> SpreadAccumulator {
        SpreadAccumulator {
            central: central_forecast,
            diffs: Matrix::zeros(0, 0),
            member_ids: Vec::new(),
            version: 0,
        }
    }

    /// State dimension.
    pub fn state_dim(&self) -> usize {
        self.central.len()
    }

    /// Number of members accumulated.
    pub fn count(&self) -> usize {
        self.member_ids.len()
    }

    /// Current version (bumps on every [`Self::add_member`]).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The central forecast.
    pub fn central(&self) -> &[f64] {
        &self.central
    }

    /// Add member `id`'s forecast result. Duplicate ids are rejected
    /// (a retried task may deliver twice; only the first copy counts).
    pub fn add_member(&mut self, id: usize, forecast: &[f64]) -> bool {
        assert_eq!(forecast.len(), self.central.len(), "state dimension mismatch");
        if self.member_ids.contains(&id) {
            return false;
        }
        let diff: Vec<f64> = forecast.iter().zip(self.central.iter()).map(|(x, c)| x - c).collect();
        self.diffs.push_col(&diff).expect("consistent dimensions");
        self.member_ids.push(id);
        self.version += 1;
        true
    }

    /// The raw (unnormalized) difference columns in arrival order —
    /// the subspace estimators decompose these directly and apply the
    /// `1/(N−1)` normalization to the variances at estimate time,
    /// since the factor changes with every arrival.
    pub fn raw_diffs(&self) -> &Matrix {
        &self.diffs
    }

    /// Member ids in arrival order.
    pub fn member_ids(&self) -> &[usize] {
        &self.member_ids
    }

    /// Take a consistent normalized snapshot (the "safe file" update).
    pub fn snapshot(&self) -> SpreadSnapshot {
        let n = self.count();
        let norm = if n > 1 { 1.0 / ((n - 1) as f64).sqrt() } else { 1.0 };
        SpreadSnapshot {
            matrix: self.diffs.scaled(norm),
            member_ids: self.member_ids.clone(),
            version: self.version,
        }
    }
}

impl SpreadSnapshot {
    /// Number of members in the snapshot.
    pub fn count(&self) -> usize {
        self.member_ids.len()
    }

    /// Thin SVD of the spread (the ESSE SVD stage). Returns `None` with
    /// fewer than 2 members.
    pub fn svd(&self) -> Option<Svd> {
        if self.count() < 2 {
            return None;
        }
        Svd::compute(&self.matrix).ok()
    }

    /// Sample covariance action on a vector without forming `P`:
    /// `P v = M (Mᵀ v)`.
    pub fn covariance_times(&self, v: &[f64]) -> Vec<f64> {
        let mtv = self.matrix.tr_matvec(v).expect("dimension checked");
        self.matrix.matvec(&mtv).expect("dimension checked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_in_any_order() {
        let mut acc = SpreadAccumulator::new(vec![0.0, 0.0]);
        assert!(acc.add_member(5, &[1.0, 0.0]));
        assert!(acc.add_member(2, &[0.0, 2.0]));
        assert!(acc.add_member(9, &[-1.0, 0.0]));
        assert_eq!(acc.count(), 3);
        let snap = acc.snapshot();
        assert_eq!(snap.member_ids, vec![5, 2, 9]);
        // Normalization: 1/sqrt(2).
        assert!((snap.matrix.get(0, 0) - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn duplicate_members_rejected() {
        let mut acc = SpreadAccumulator::new(vec![0.0]);
        assert!(acc.add_member(1, &[1.0]));
        assert!(!acc.add_member(1, &[2.0]));
        assert_eq!(acc.count(), 1);
    }

    #[test]
    fn version_bumps_and_snapshot_is_stable() {
        let mut acc = SpreadAccumulator::new(vec![0.0]);
        acc.add_member(0, &[1.0]);
        let snap = acc.snapshot();
        let v1 = snap.version;
        acc.add_member(1, &[2.0]);
        assert!(acc.version() > v1);
        // The old snapshot is unaffected (safe-file semantics).
        assert_eq!(snap.count(), 1);
    }

    #[test]
    fn snapshot_covariance_matches_sample_covariance() {
        // Members symmetric around the central forecast (0,0):
        // covariance = sum d dᵀ / (N-1).
        let mut acc = SpreadAccumulator::new(vec![0.0, 0.0]);
        acc.add_member(0, &[1.0, 1.0]);
        acc.add_member(1, &[-1.0, 1.0]);
        acc.add_member(2, &[0.0, -2.0]);
        let snap = acc.snapshot();
        // P = MMᵀ with M = diffs/sqrt(2):
        // diffs = [[1,-1,0],[1,1,-2]] ⇒ ddᵀ = [[2,0],[0,6]] ⇒ P = [[1,0],[0,3]].
        let p_e1 = snap.covariance_times(&[1.0, 0.0]);
        assert!((p_e1[0] - 1.0).abs() < 1e-12);
        assert!(p_e1[1].abs() < 1e-12);
        let p_e2 = snap.covariance_times(&[0.0, 1.0]);
        assert!((p_e2[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn svd_requires_two_members() {
        let mut acc = SpreadAccumulator::new(vec![0.0, 0.0]);
        assert!(acc.snapshot().svd().is_none());
        acc.add_member(0, &[1.0, 0.0]);
        assert!(acc.snapshot().svd().is_none());
        acc.add_member(1, &[0.0, 1.0]);
        let svd = acc.snapshot().svd().unwrap();
        assert_eq!(svd.s.len(), 2);
    }

    #[test]
    fn order_does_not_change_the_covariance() {
        let members: Vec<(usize, Vec<f64>)> = vec![
            (0, vec![1.0, 0.5]),
            (1, vec![-0.5, 1.0]),
            (2, vec![0.2, -1.2]),
            (3, vec![-0.7, -0.3]),
        ];
        let mut fwd = SpreadAccumulator::new(vec![0.0, 0.0]);
        for (id, m) in &members {
            fwd.add_member(*id, m);
        }
        let mut rev = SpreadAccumulator::new(vec![0.0, 0.0]);
        for (id, m) in members.iter().rev() {
            rev.add_member(*id, m);
        }
        let v = vec![0.3, -0.9];
        let a = fwd.snapshot().covariance_times(&v);
        let b = rev.snapshot().covariance_times(&v);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
