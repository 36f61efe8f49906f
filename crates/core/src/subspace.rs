//! The error subspace: dominant modes and their variances.
//!
//! ESSE represents the forecast error covariance as
//! `P ≈ E Λ Eᵀ` with `E` (n×k, orthonormal columns) the dominant error
//! modes and `Λ = diag(λ₁ ≥ … ≥ λₖ)` their variances. `k ≪ n` always —
//! that truncation *is* the method.

use crate::covariance::SpreadAccumulator;
use crate::error::EsseError;
use esse_linalg::{vecops, IncrementalSvd, LinalgCtx, Matrix, Svd, SymEigen};

/// Dominant error modes `E` with variances `Λ`.
#[derive(Debug, Clone)]
pub struct ErrorSubspace {
    /// Modes as columns, `n × k`, orthonormal.
    pub modes: Matrix,
    /// Mode variances λᵢ (descending, ≥ 0). `λᵢ = σᵢ²` of the spread SVD.
    pub variances: Vec<f64>,
}

/// Compact, serializable summary of a subspace (for experiment records).
#[derive(Debug, Clone)]
pub struct SubspaceSummary {
    /// Rank retained.
    pub rank: usize,
    /// Total variance (Σλ).
    pub total_variance: f64,
    /// Leading variances (up to 10).
    pub leading: Vec<f64>,
}

impl ErrorSubspace {
    /// Build from the thin SVD of a normalized spread matrix `M`
    /// (`P = M Mᵀ` ⇒ modes = U, variances = σ²), keeping modes above
    /// `rel_tol · σ₁` and at most `max_rank`.
    pub fn from_spread_svd(svd: &Svd, rel_tol: f64, max_rank: usize) -> ErrorSubspace {
        let rank = retained_rank(&svd.s, rel_tol, max_rank);
        ErrorSubspace {
            modes: svd.u.take_cols(rank),
            variances: svd.s[..rank].iter().map(|s| s * s).collect(),
        }
    }

    /// Build from a (small) full covariance matrix — testing path.
    pub fn from_covariance(p: &Matrix, rel_tol: f64, max_rank: usize) -> ErrorSubspace {
        let eig = SymEigen::compute(p).expect("symmetric covariance");
        let lead = eig.values.first().copied().unwrap_or(0.0).max(0.0);
        let mut rank = 0;
        for &v in &eig.values {
            if v > rel_tol * lead && rank < max_rank {
                rank += 1;
            } else {
                break;
            }
        }
        let rank = rank.max(1).min(eig.values.len());
        ErrorSubspace {
            modes: eig.vectors.take_cols(rank),
            variances: eig.values[..rank].iter().map(|&v| v.max(0.0)).collect(),
        }
    }

    /// State dimension `n`.
    pub fn state_dim(&self) -> usize {
        self.modes.rows()
    }

    /// Retained rank `k`.
    pub fn rank(&self) -> usize {
        self.variances.len()
    }

    /// Total retained variance Σλ (the error "energy").
    pub fn total_variance(&self) -> f64 {
        self.variances.iter().sum()
    }

    /// Per-state-element marginal variance `diag(E Λ Eᵀ)` — this is the
    /// uncertainty *field* mapped in the paper's Figs. 5-6.
    pub fn variance_field(&self) -> Vec<f64> {
        let n = self.state_dim();
        let mut var = vec![0.0; n];
        for (k, &lam) in self.variances.iter().enumerate() {
            let col = self.modes.col(k);
            for i in 0..n {
                var[i] += lam * col[i] * col[i];
            }
        }
        var
    }

    /// Per-element standard deviation field.
    pub fn std_field(&self) -> Vec<f64> {
        self.variance_field().into_iter().map(f64::sqrt).collect()
    }

    /// Apply the covariance to a vector: `P v = E Λ (Eᵀ v)` in `O(nk)`.
    ///
    /// A `v` whose length differs from the state dimension is a
    /// [`EsseError::Numeric`] error, not a panic.
    pub fn covariance_times(&self, v: &[f64]) -> Result<Vec<f64>, EsseError> {
        let etv = self.modes.tr_matvec(v)?;
        let scaled: Vec<f64> = etv.iter().zip(self.variances.iter()).map(|(c, l)| c * l).collect();
        Ok(self.modes.matvec(&scaled)?)
    }

    /// Truncate to the leading `k` modes.
    pub fn truncate(&self, k: usize) -> ErrorSubspace {
        let k = k.min(self.rank()).max(1);
        ErrorSubspace { modes: self.modes.take_cols(k), variances: self.variances[..k].to_vec() }
    }

    /// Projection coefficients of `v` on the modes (`Eᵀ v`).
    pub fn project(&self, v: &[f64]) -> Vec<f64> {
        self.modes.tr_matvec(v).expect("dimension checked")
    }

    /// Verify orthonormality of the modes (max deviation of `EᵀE` from I).
    pub fn orthonormality_defect(&self) -> f64 {
        let g = self.modes.gram();
        let k = self.rank();
        let mut worst: f64 = 0.0;
        for i in 0..k {
            for j in 0..k {
                let want = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((g.get(i, j) - want).abs());
            }
        }
        worst
    }

    /// Serializable summary.
    pub fn summary(&self) -> SubspaceSummary {
        SubspaceSummary {
            rank: self.rank(),
            total_variance: self.total_variance(),
            leading: self.variances.iter().take(10).copied().collect(),
        }
    }

    /// An isotropic subspace (identity-like) for bootstrapping: `k`
    /// random orthonormal modes with equal variance `var`.
    pub fn isotropic(rng: &mut impl rand::Rng, n: usize, k: usize, var: f64) -> ErrorSubspace {
        let modes = esse_linalg::random::random_orthonormal(rng, n, k);
        ErrorSubspace { modes, variances: vec![var; k] }
    }

    /// RMS amplitude of the subspace along a unit direction `d`
    /// (`sqrt(dᵀ P d)`).
    pub fn amplitude_along(&self, d: &[f64]) -> Result<f64, EsseError> {
        let pv = self.covariance_times(d)?;
        Ok(vecops::dot(d, &pv).max(0.0).sqrt())
    }
}

/// How a [`SubspaceUpdate`] was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Full recompute from the complete spread matrix (the
    /// [`FullRecompute`] strategy's every estimate).
    Full,
    /// Rank-block fold of the newly arrived members into the tracked
    /// `U·Σ` (Brand update).
    Incremental,
    /// Drift-control full recompute inside the [`Incremental`]
    /// strategy — triggered periodically or on a defect breach.
    Refresh,
}

impl UpdateKind {
    /// Stable lowercase label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            UpdateKind::Full => "full",
            UpdateKind::Incremental => "incremental",
            UpdateKind::Refresh => "refresh",
        }
    }
}

/// Result of one [`SubspaceEstimator::estimate`] call.
#[derive(Debug, Clone)]
pub struct SubspaceUpdate {
    /// The estimated dominant error subspace.
    pub subspace: ErrorSubspace,
    /// How this estimate was produced.
    pub kind: UpdateKind,
    /// Members folded into the estimate.
    pub members: usize,
    /// Measured orthonormality defect `max |EᵀE − I|` of the estimator
    /// basis — the drift signal compared against `defect_tol`.
    pub defect: f64,
    /// Relative spectral-energy error bound of the estimate (fraction
    /// of total energy lost to truncation since the last full
    /// recompute). Always 0 for [`UpdateKind::Full`].
    pub error_bound: f64,
}

/// Strategy selecting how the error subspace is (re)computed as
/// members arrive.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SubspaceStrategy {
    /// Exact Gram-path SVD of every member seen, at every estimate: a
    /// pure function of the ordered member list (see [`FullRecompute`]).
    #[default]
    FullRecompute,
    /// Fold arriving members into the tracked `U·Σ` with rank-block
    /// updates; full recompute for drift control.
    Incremental {
        /// Force a full recompute every this many estimates
        /// (0 = never periodic; defect breaches still refresh).
        refresh_every: usize,
        /// Orthonormality-defect threshold that forces a refresh.
        defect_tol: f64,
    },
}

/// Incrementally consumes member forecasts and produces subspace
/// estimates on demand — the coordinator's SVD-lane abstraction.
///
/// Implementations own the spread bookkeeping (duplicate-id rejection,
/// central differencing), so the caller only routes forecasts in and
/// estimates out.
pub trait SubspaceEstimator: Send {
    /// Fold member `id`'s forecast. Returns `false` for duplicate ids
    /// (a retried task may deliver twice; only the first copy counts).
    fn add_member(&mut self, id: usize, forecast: &[f64]) -> bool;

    /// Members accumulated so far.
    fn count(&self) -> usize;

    /// Member ids accumulated, in arrival order.
    fn member_ids(&self) -> &[usize];

    /// Produce the current estimate. `Ok(None)` when fewer than two
    /// members are available (no spread to decompose).
    fn estimate(&mut self) -> Result<Option<SubspaceUpdate>, EsseError>;

    /// Stable strategy label for logs and traces.
    fn strategy(&self) -> &'static str;
}

/// Singular values kept from the descending `s`: above `rel_tol · σ₁`,
/// at most `max_rank`, at least one (scale-invariant).
fn retained_rank(s: &[f64], rel_tol: f64, max_rank: usize) -> usize {
    let s0 = s.first().copied().unwrap_or(0.0);
    let numerical = if s0 <= 0.0 { 0 } else { s.iter().take_while(|&&x| x > rel_tol * s0).count() };
    numerical.min(max_rank).max(1).min(s.len())
}

/// Mode variances from *raw*-difference singular values: the spread
/// normalization moves with every arrival, so `λ = σ²/(N−1)` lands here.
fn spread_variances(s: &[f64], members: usize) -> Vec<f64> {
    let norm = 1.0 / ((members - 1) as f64);
    s.iter().map(|x| x * x * norm).collect()
}

/// The exact strategy: Gram-path SVD of every difference column seen,
/// paying per estimate only for what arrived since the last one. The
/// raw Gram matrix `DᵀD` is carried and extended by the new members'
/// rows and columns; its eigenpairs are recomputed from scratch (no
/// warm start) and only the retained modes `U = D·V_k·Σ_k⁻¹` formed.
/// An estimate is therefore a **pure function of the ordered member
/// list** — asked at every stride or once at the end, the same bits —
/// which `esse_master` relies on when it compares its persistent
/// checkpoint estimator with fresh ones (docs/NUMERICS.md §2).
pub struct FullRecompute {
    acc: SpreadAccumulator,
    /// `DᵀD` of the first `gram.cols()` raw difference columns.
    gram: Matrix,
    rel_tol: f64,
    max_rank: usize,
}

impl FullRecompute {
    /// New estimator around the central forecast.
    pub fn new(central: Vec<f64>, rel_tol: f64, max_rank: usize) -> FullRecompute {
        FullRecompute {
            acc: SpreadAccumulator::new(central),
            gram: Matrix::zeros(0, 0),
            rel_tol,
            max_rank,
        }
    }
}

impl SubspaceEstimator for FullRecompute {
    fn add_member(&mut self, id: usize, forecast: &[f64]) -> bool {
        self.acc.add_member(id, forecast)
    }

    fn count(&self) -> usize {
        self.acc.count()
    }

    fn member_ids(&self) -> &[usize] {
        self.acc.member_ids()
    }

    fn estimate(&mut self) -> Result<Option<SubspaceUpdate>, EsseError> {
        let members = self.acc.count();
        if members < 2 {
            return Ok(None);
        }
        let diffs = self.acc.raw_diffs();
        self.gram = diffs.gram_extending(&self.gram);
        // A failed decomposition skips the round, like too few members.
        let Ok(eig) = SymEigen::compute(&self.gram) else { return Ok(None) };
        let s: Vec<f64> = eig.values.iter().map(|&l| l.max(0.0).sqrt()).collect();
        let rank = retained_rank(&s, self.rel_tol, self.max_rank);
        let subspace = ErrorSubspace {
            modes: Svd::left_vectors(diffs, &eig.vectors, &s, rank)?,
            variances: spread_variances(&s[..rank], members),
        };
        let defect = subspace.orthonormality_defect();
        Ok(Some(SubspaceUpdate {
            subspace,
            kind: UpdateKind::Full,
            members,
            defect,
            error_bound: 0.0,
        }))
    }

    fn strategy(&self) -> &'static str {
        "full"
    }
}

/// The incremental strategy: rank-block folds of new members into a
/// tracked `U·Σ` ([`IncrementalSvd`]), with drift-controlled full
/// recomputes. Raw difference columns are retained (same memory as
/// [`FullRecompute`] keeps) so a refresh can always rebuild from
/// scratch.
pub struct IncrementalEstimator {
    acc: SpreadAccumulator,
    tracker: IncrementalSvd,
    /// Columns already folded into the tracker.
    folded: usize,
    refresh_every: usize,
    defect_tol: f64,
    estimates_since_refresh: usize,
    rel_tol: f64,
    max_rank: usize,
}

impl IncrementalEstimator {
    /// New estimator around the central forecast.
    pub fn new(
        central: Vec<f64>,
        rel_tol: f64,
        max_rank: usize,
        refresh_every: usize,
        defect_tol: f64,
        ctx: LinalgCtx,
    ) -> IncrementalEstimator {
        IncrementalEstimator {
            acc: SpreadAccumulator::new(central),
            // Track extra headroom beyond the published rank: modes
            // near the truncation edge churn between updates, and the
            // buffer keeps that churn out of the exported subspace.
            tracker: IncrementalSvd::new(max_rank + (max_rank / 4).max(2), ctx),
            folded: 0,
            refresh_every,
            defect_tol,
            estimates_since_refresh: 0,
            rel_tol,
            max_rank,
        }
    }

    /// Incremental updates applied so far (bench/CI structural counter).
    pub fn update_count(&self) -> u64 {
        self.tracker.update_count()
    }

    /// Drift-control refreshes applied so far.
    pub fn refresh_count(&self) -> u64 {
        self.tracker.refresh_count()
    }
}

impl SubspaceEstimator for IncrementalEstimator {
    fn add_member(&mut self, id: usize, forecast: &[f64]) -> bool {
        self.acc.add_member(id, forecast)
    }

    fn count(&self) -> usize {
        self.acc.count()
    }

    fn member_ids(&self) -> &[usize] {
        self.acc.member_ids()
    }

    fn estimate(&mut self) -> Result<Option<SubspaceUpdate>, EsseError> {
        let total = self.acc.count();
        if total < 2 {
            return Ok(None);
        }
        let diffs = self.acc.raw_diffs();
        if self.folded < total {
            let mut batch = Matrix::zeros(diffs.rows(), total - self.folded);
            for (jj, j) in (self.folded..total).enumerate() {
                batch.col_mut(jj).copy_from_slice(diffs.col(j));
            }
            self.tracker.fold(&batch)?;
            self.folded = total;
        }
        let periodic =
            self.refresh_every > 0 && self.estimates_since_refresh + 1 >= self.refresh_every;
        let drifted = self.tracker.orthonormality_defect() > self.defect_tol;
        let kind = if periodic || drifted {
            self.tracker.refresh(diffs)?;
            self.estimates_since_refresh = 0;
            UpdateKind::Refresh
        } else {
            self.estimates_since_refresh += 1;
            UpdateKind::Incremental
        };
        // The tracker holds raw-diff singular values.
        let s = self.tracker.singular_values();
        let rank = retained_rank(s, self.rel_tol, self.max_rank);
        let subspace = ErrorSubspace {
            modes: self.tracker.modes().take_cols(rank),
            variances: spread_variances(&s[..rank], total),
        };
        Ok(Some(SubspaceUpdate {
            subspace,
            kind,
            members: total,
            defect: self.tracker.orthonormality_defect(),
            error_bound: self.tracker.relative_error_bound(),
        }))
    }

    fn strategy(&self) -> &'static str {
        "incremental"
    }
}

/// Construct the estimator for a strategy — the single factory both
/// `MtcEsse` and `esse_master` call at engine construction.
pub fn make_estimator(
    strategy: &SubspaceStrategy,
    central: Vec<f64>,
    rel_tol: f64,
    max_rank: usize,
    ctx: LinalgCtx,
) -> Box<dyn SubspaceEstimator> {
    match *strategy {
        SubspaceStrategy::FullRecompute => Box::new(FullRecompute::new(central, rel_tol, max_rank)),
        SubspaceStrategy::Incremental { refresh_every, defect_tol } => Box::new(
            IncrementalEstimator::new(central, rel_tol, max_rank, refresh_every, defect_tol, ctx),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple_subspace() -> ErrorSubspace {
        // Modes e1, e2 in R^4 with variances 4 and 1.
        let mut m = Matrix::zeros(4, 2);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        ErrorSubspace { modes: m, variances: vec![4.0, 1.0] }
    }

    #[test]
    fn variance_field_diagonal() {
        let s = simple_subspace();
        assert_eq!(s.variance_field(), vec![4.0, 1.0, 0.0, 0.0]);
        assert_eq!(s.std_field(), vec![2.0, 1.0, 0.0, 0.0]);
        assert_eq!(s.total_variance(), 5.0);
    }

    #[test]
    fn covariance_times_matches_dense() {
        let s = simple_subspace();
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let pv = s.covariance_times(&v).unwrap();
        assert_eq!(pv, vec![4.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn covariance_times_rejects_bad_dimension() {
        let s = simple_subspace();
        assert!(matches!(s.covariance_times(&[1.0, 2.0]), Err(EsseError::Numeric(_))));
        assert!(matches!(s.amplitude_along(&[1.0]), Err(EsseError::Numeric(_))));
    }

    #[test]
    fn from_covariance_recovers_modes() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = esse_linalg::random::random_spd_with_spectrum(&mut rng, &[10.0, 5.0, 0.1, 0.01]);
        let s = ErrorSubspace::from_covariance(&p, 0.005, 8);
        // rel_tol 0.005 * 10 = 0.05 keeps 10, 5, 0.1.
        assert_eq!(s.rank(), 3);
        assert!((s.variances[0] - 10.0).abs() < 1e-8);
        assert!(s.orthonormality_defect() < 1e-9);
    }

    #[test]
    fn truncate_keeps_leading() {
        let s = simple_subspace();
        let t = s.truncate(1);
        assert_eq!(t.rank(), 1);
        assert_eq!(t.variances, vec![4.0]);
    }

    #[test]
    fn amplitude_along_axes() {
        let s = simple_subspace();
        assert!((s.amplitude_along(&[1.0, 0.0, 0.0, 0.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!((s.amplitude_along(&[0.0, 0.0, 1.0, 0.0]).unwrap() - 0.0).abs() < 1e-12);
    }

    fn lcg_forecasts(n: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..count)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn full_recompute_estimate_is_a_pure_function_of_the_member_list() {
        let central = vec![0.25; 24];
        let forecasts = lcg_forecasts(24, 12, 41);
        // Asked at every stride (carrying the Gram matrix along) ...
        let mut strided = FullRecompute::new(central.clone(), 1e-6, 6);
        let mut last = None;
        for (id, f) in forecasts.iter().enumerate() {
            assert!(strided.add_member(id, f));
            if id % 3 == 2 {
                last = strided.estimate().unwrap();
            }
        }
        let update = last.unwrap();
        assert_eq!(update.kind, UpdateKind::Full);
        assert_eq!(update.members, 12);
        assert_eq!(update.error_bound, 0.0);
        // ... and asked once by a fresh estimator: the same bits.
        let mut once = FullRecompute::new(central.clone(), 1e-6, 6);
        let mut acc = SpreadAccumulator::new(central);
        for (id, f) in forecasts.iter().enumerate() {
            once.add_member(id, f);
            acc.add_member(id, f);
        }
        let fresh = once.estimate().unwrap().unwrap().subspace;
        assert_eq!(update.subspace.variances, fresh.variances);
        assert_eq!(update.subspace.modes, fresh.modes);
        // Both agree with a one-sided Jacobi SVD of the normalized spread.
        let svd = Svd::jacobi(&acc.snapshot().matrix).unwrap();
        let reference = ErrorSubspace::from_spread_svd(&svd, 1e-6, 6);
        assert_eq!(fresh.rank(), reference.rank());
        for (x, y) in fresh.variances.iter().zip(reference.variances.iter()) {
            assert!((x - y).abs() <= 1e-10 * y, "{x} vs {y}");
        }
        let rho = crate::convergence::similarity(&fresh, &reference);
        assert!(1.0 - rho < 1e-12, "1 - rho = {:e}", 1.0 - rho);
    }

    #[test]
    fn duplicate_members_still_yield_orthonormal_modes() {
        // Every member twice under different ids: half the spectrum is
        // null, and a retained column under the Gram floor takes the
        // orthonormal-fill path.
        let central = vec![0.0; 16];
        let mut est = FullRecompute::new(central.clone(), 0.0, 12);
        for (id, f) in lcg_forecasts(16, 6, 3).iter().enumerate() {
            est.add_member(id, f);
            est.add_member(100 + id, f);
        }
        let update = est.estimate().unwrap().unwrap();
        assert!(update.subspace.rank() >= 6);
        assert!(update.defect < 1e-9, "defect {}", update.defect);
        assert!(update.subspace.variances[6..].iter().all(|&v| v < 1e-12));
        // No spread at all: one filled unit mode with zero variance.
        let mut flat = FullRecompute::new(central.clone(), 1e-6, 4);
        flat.add_member(0, &central);
        flat.add_member(1, &central);
        let update = flat.estimate().unwrap().unwrap();
        assert_eq!(update.subspace.variances, vec![0.0]);
        assert_eq!(update.defect, 0.0);
    }

    #[test]
    fn estimators_reject_duplicates_and_need_two_members() {
        let mut est =
            IncrementalEstimator::new(vec![0.0; 4], 1e-6, 4, 0, 1e-6, LinalgCtx::serial());
        assert!(est.estimate().unwrap().is_none());
        assert!(est.add_member(3, &[1.0, 0.0, 0.0, 0.0]));
        assert!(!est.add_member(3, &[9.0, 9.0, 9.0, 9.0]));
        assert!(est.estimate().unwrap().is_none());
        assert!(est.add_member(5, &[0.0, 1.0, 0.0, 0.0]));
        let update = est.estimate().unwrap().unwrap();
        assert_eq!(update.members, 2);
        assert_eq!(est.member_ids(), &[3, 5]);
    }

    #[test]
    fn incremental_estimator_tracks_full_svd() {
        let central = vec![0.0; 40];
        let forecasts = lcg_forecasts(40, 20, 77);
        let mut inc =
            IncrementalEstimator::new(central.clone(), 1e-8, 10, 0, 1e-6, LinalgCtx::serial());
        let mut full = FullRecompute::new(central, 1e-8, 10);
        let mut last_inc = None;
        let mut last_full = None;
        for (id, f) in forecasts.iter().enumerate() {
            inc.add_member(id, f);
            full.add_member(id, f);
            if id >= 1 && id % 4 == 1 {
                last_inc = inc.estimate().unwrap();
                last_full = full.estimate().unwrap();
            }
        }
        let (a, b) = (last_inc.unwrap(), last_full.unwrap());
        assert!(inc.update_count() > 1, "stream should fold incrementally");
        assert_eq!(a.members, b.members);
        assert_eq!(a.subspace.rank(), b.subspace.rank());
        // Truncation to max_rank+headroom loses a little tail energy;
        // agreement must hold within the tracker's own reported bound
        // (plus roundoff).
        let tol = b.subspace.variances[0] * (a.error_bound + 1e-10);
        for (x, y) in a.subspace.variances.iter().zip(b.subspace.variances.iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y} (bound {tol})");
        }
        assert!(a.defect < 1e-8, "defect {}", a.defect);
    }

    #[test]
    fn defect_breach_forces_refresh() {
        // defect_tol = 0 means every estimate after the first fold sees
        // "drift" and recomputes from scratch.
        let central = vec![0.0; 12];
        let forecasts = lcg_forecasts(12, 8, 13);
        let mut est = IncrementalEstimator::new(central, 1e-8, 6, 0, 0.0, LinalgCtx::serial());
        for (id, f) in forecasts.iter().enumerate() {
            est.add_member(id, f);
        }
        let update = est.estimate().unwrap().unwrap();
        assert_eq!(update.kind, UpdateKind::Refresh);
        assert!(est.refresh_count() >= 1);
    }

    #[test]
    fn periodic_refresh_triggers_on_schedule() {
        let central = vec![0.0; 12];
        let forecasts = lcg_forecasts(12, 12, 29);
        // refresh_every = 2: estimates alternate incremental / refresh.
        let mut est = IncrementalEstimator::new(central, 1e-8, 6, 2, 1.0, LinalgCtx::serial());
        let mut kinds = Vec::new();
        for (id, f) in forecasts.iter().enumerate() {
            est.add_member(id, f);
            if id >= 1 {
                kinds.push(est.estimate().unwrap().unwrap().kind);
            }
        }
        assert!(kinds.contains(&UpdateKind::Refresh));
        assert!(kinds.contains(&UpdateKind::Incremental));
        assert_eq!(kinds[1], UpdateKind::Refresh, "second estimate hits refresh_every=2");
    }

    #[test]
    fn factory_builds_both_strategies() {
        let full = make_estimator(
            &SubspaceStrategy::FullRecompute,
            vec![0.0; 4],
            1e-6,
            4,
            LinalgCtx::serial(),
        );
        assert_eq!(full.strategy(), "full");
        let inc = make_estimator(
            &SubspaceStrategy::Incremental { refresh_every: 8, defect_tol: 1e-6 },
            vec![0.0; 4],
            1e-6,
            4,
            LinalgCtx::serial(),
        );
        assert_eq!(inc.strategy(), "incremental");
    }

    #[test]
    fn isotropic_is_orthonormal() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = ErrorSubspace::isotropic(&mut rng, 20, 5, 0.3);
        assert_eq!(s.rank(), 5);
        assert!(s.orthonormality_defect() < 1e-10);
        assert!((s.total_variance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn summary_roundtrip() {
        let s = simple_subspace();
        let sum = s.summary();
        assert_eq!(sum.rank, 2);
        assert_eq!(sum.total_variance, 5.0);
        assert_eq!(sum.leading, vec![4.0, 1.0]);
    }
}
