//! The linalg engine context: one place to configure threading and
//! cache blocking for every heavy kernel.
//!
//! [`LinalgCtx`] replaces the old per-call `threads` arguments
//! (`gemm_parallel(a, b, threads)`): an engine constructs one context
//! from its config and passes it down, so every GEMM/Gram/QR in a run
//! shares the same thread budget and block size.
//!
//! Determinism contract: every threaded kernel here partitions the
//! *output* across threads (never a reduction) and accumulates each
//! output element in ascending reduction-index order, so results are
//! **bitwise identical** to the serial reference kernels for any
//! `threads`/`block_size` — the property the decided-prefix schedule
//! and the chaos harnesses rely on.

use crate::matrix::Matrix;
use crate::qr::{self, Qr};
use crate::{LinalgError, Result};

/// Threading and blocking configuration shared by all heavy kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinalgCtx {
    /// Worker threads for the blocked kernels (1 = fully serial).
    pub threads: usize,
    /// Reduction-dimension block size: how many columns of `A` (GEMM)
    /// or reflectors (QR) are kept hot in cache per pass. Tuned so a
    /// block of `A` columns fits in L2 for typical ESSE state sizes.
    pub block_size: usize,
}

impl Default for LinalgCtx {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        LinalgCtx { threads, block_size: 64 }
    }
}

impl LinalgCtx {
    /// Fully serial context (also the context used in tests that pin
    /// bitwise behavior).
    pub fn serial() -> Self {
        LinalgCtx { threads: 1, block_size: 64 }
    }

    /// Context with an explicit thread budget and the default block size.
    pub fn with_threads(threads: usize) -> Self {
        LinalgCtx { threads: threads.max(1), block_size: 64 }
    }

    fn clamped_block(&self) -> usize {
        self.block_size.max(1)
    }

    /// Blocked, threaded `A * B`. Bitwise identical to
    /// [`crate::gemm::gemm_serial`] for any thread count / block size.
    pub fn gemm(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        if a.cols() != b.rows() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("lhs.cols == rhs.rows ({})", a.cols()),
                found: format!("rhs has {} rows", b.rows()),
            });
        }
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        // Threading pays off only past ~1 Mflop.
        if self.threads <= 1 || n < 2 || m * k * n < 1 << 20 {
            return crate::gemm::gemm_serial(a, b);
        }
        let threads = self.threads.min(n);
        let block = self.clamped_block();
        let mut c = Matrix::zeros(m, n);
        {
            let data = c.as_mut_slice();
            // Split the output buffer into per-thread column panels.
            let cols_per = n.div_ceil(threads);
            let mut panels: Vec<(usize, &mut [f64])> = Vec::with_capacity(threads);
            let mut rest = data;
            let mut j0 = 0;
            while j0 < n {
                let take = cols_per.min(n - j0);
                let (head, tail) = rest.split_at_mut(take * m);
                panels.push((j0, head));
                rest = tail;
                j0 += take;
            }
            std::thread::scope(|s| {
                for (j0, panel) in panels {
                    s.spawn(move || gemm_panel(a, b, j0, panel, block));
                }
            });
        }
        Ok(c)
    }

    /// Threaded Gram matrix `AᵀA` (n×n from an m×n input). Each thread
    /// fills the upper triangle of a panel of output columns — panels
    /// are cut so the triangles hold equal numbers of entries — and the
    /// lower triangle is mirrored afterwards. Bitwise identical to
    /// [`Matrix::gram`] for any thread count: both use the same serial
    /// dot kernel per entry.
    pub fn gram(&self, a: &Matrix) -> Matrix {
        let n = a.cols();
        if self.threads <= 1 || n < 8 || a.rows() * n * n < 1 << 22 {
            return a.gram();
        }
        let threads = self.threads.min(n);
        let mut g = Matrix::zeros(n, n);
        std::thread::scope(|s| {
            let mut rest = g.as_mut_slice();
            let mut j0 = 0;
            for t in 1..=threads {
                // Columns 0..j hold j(j+1)/2 triangle entries, so the
                // t-th cut falls at n·√(t/threads).
                let cut = (n as f64 * (t as f64 / threads as f64).sqrt()).round() as usize;
                let j1 = if t == threads { n } else { cut.clamp(j0, n) };
                let (panel, tail) = rest.split_at_mut((j1 - j0) * n);
                rest = tail;
                s.spawn(move || {
                    for (jj, out) in panel.chunks_exact_mut(n).enumerate() {
                        let cj = a.col(j0 + jj);
                        for (i, o) in out[..=j0 + jj].iter_mut().enumerate() {
                            *o = crate::vecops::dot(a.col(i), cj);
                        }
                    }
                });
                j0 = j1;
            }
        });
        for j in 0..n {
            for i in 0..j {
                let v = g.get(i, j);
                g.set(j, i, v);
            }
        }
        g
    }

    /// Blocked Householder thin QR (`A = Q R`, `m ≥ n`).
    ///
    /// Reflectors are built panel by panel (`block_size` columns at a
    /// time); each finished panel is applied to the trailing columns
    /// with the trailing block partitioned across threads. Every column
    /// still receives reflectors in ascending order, so the factors are
    /// bitwise identical to the unblocked [`Qr::compute`].
    pub fn qr(&self, a: &Matrix) -> Result<Qr> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::DimensionMismatch {
                expected: "rows >= cols for thin QR".into(),
                found: format!("{m} x {n}"),
            });
        }
        let nb = self.clamped_block();
        let mut r = a.clone();
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut k0 = 0;
        while k0 < n {
            let kend = (k0 + nb).min(n);
            // Factor the panel serially (columns depend on each other).
            for k in k0..kend {
                let v = qr::householder_vector(&r.col(k)[k..m]);
                if crate::vecops::norm2(&v) > 0.0 {
                    for j in k..kend {
                        let cj = r.col_mut(j);
                        qr::apply_reflector(&v, &mut cj[k..m]);
                    }
                }
                vs.push(v);
            }
            // Apply the panel's reflectors to the trailing columns,
            // partitioned across threads (columns are independent).
            if kend < n {
                let panel = &vs[k0..kend];
                apply_panel_threaded(&mut r, panel, k0, kend, self.threads);
            }
            k0 = kend;
        }
        // Extract the upper triangle into R (n×n).
        let mut rr = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..=j {
                rr.set(i, j, r.get(i, j));
            }
        }
        // Form thin Q by applying the reflections in reverse to the
        // first n columns of I, columns partitioned across threads.
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q.set(j, j, 1.0);
        }
        build_q_threaded(&mut q, &vs, self.threads);
        Ok(Qr { q, r: rr })
    }
}

/// One thread's share of the blocked GEMM: output columns
/// `j0 .. j0 + panel.len()/m`, reduction dimension walked in
/// `block`-sized slabs so the active columns of `A` stay in cache.
/// Per output element the accumulation order over `l` is ascending —
/// exactly the serial kernel's order.
fn gemm_panel(a: &Matrix, b: &Matrix, j0: usize, panel: &mut [f64], block: usize) {
    let (m, k) = (a.rows(), a.cols());
    let ncols = panel.len() / m;
    let mut lb = 0;
    while lb < k {
        let lend = (lb + block).min(k);
        for jj in 0..ncols {
            let bj = b.col(j0 + jj);
            let cj = &mut panel[jj * m..(jj + 1) * m];
            for (l, &blj) in bj.iter().enumerate().take(lend).skip(lb) {
                if blj == 0.0 {
                    continue;
                }
                let al = a.col(l);
                // Contiguous saxpy over the output column: the tile the
                // auto-vectorizer turns into packed FMAs.
                for (ci, &ai) in cj.iter_mut().zip(al.iter()) {
                    *ci += ai * blj;
                }
            }
        }
        lb = lend;
    }
}

/// Apply a panel of reflectors (`panel[p]` eliminates column `k0+p`) to
/// the trailing columns `kend..n` of `r`, split across threads.
fn apply_panel_threaded(
    r: &mut Matrix,
    panel: &[Vec<f64>],
    k0: usize,
    kend: usize,
    threads: usize,
) {
    let (m, n) = r.shape();
    let trailing = n - kend;
    let work = trailing * (m - k0) * panel.len();
    if threads <= 1 || trailing < 2 || work < 1 << 18 {
        for j in kend..n {
            let cj = r.col_mut(j);
            for (p, v) in panel.iter().enumerate() {
                if crate::vecops::norm2(v) > 0.0 {
                    qr::apply_reflector(v, &mut cj[k0 + p..m]);
                }
            }
        }
        return;
    }
    let threads = threads.min(trailing);
    let data = r.as_mut_slice();
    let tail = &mut data[kend * m..n * m];
    let cols_per = trailing.div_ceil(threads);
    let mut chunks: Vec<&mut [f64]> = Vec::with_capacity(threads);
    let mut rest = tail;
    let mut j = 0;
    while j < trailing {
        let take = cols_per.min(trailing - j);
        let (head, t) = rest.split_at_mut(take * m);
        chunks.push(head);
        rest = t;
        j += take;
    }
    std::thread::scope(|s| {
        for chunk in chunks {
            s.spawn(move || {
                let ncols = chunk.len() / m;
                for jj in 0..ncols {
                    let cj = &mut chunk[jj * m..(jj + 1) * m];
                    for (p, v) in panel.iter().enumerate() {
                        if crate::vecops::norm2(v) > 0.0 {
                            qr::apply_reflector(v, &mut cj[k0 + p..m]);
                        }
                    }
                }
            });
        }
    });
}

/// Back-accumulate Q from the reflector list, columns split across
/// threads (each column applies every reflector in descending order,
/// matching the unblocked path).
fn build_q_threaded(q: &mut Matrix, vs: &[Vec<f64>], threads: usize) {
    let (m, n) = q.shape();
    if threads <= 1 || n < 2 || m * n * vs.len() < 1 << 18 {
        for k in (0..vs.len()).rev() {
            let v = &vs[k];
            if crate::vecops::norm2(v) == 0.0 {
                continue;
            }
            for j in 0..n {
                let cj = q.col_mut(j);
                qr::apply_reflector(v, &mut cj[k..m]);
            }
        }
        return;
    }
    let threads = threads.min(n);
    let data = q.as_mut_slice();
    let cols_per = n.div_ceil(threads);
    let mut chunks: Vec<&mut [f64]> = Vec::with_capacity(threads);
    let mut rest = data;
    let mut j = 0;
    while j < n {
        let take = cols_per.min(n - j);
        let (head, t) = rest.split_at_mut(take * m);
        chunks.push(head);
        rest = t;
        j += take;
    }
    std::thread::scope(|s| {
        for chunk in chunks {
            s.spawn(move || {
                let ncols = chunk.len() / m;
                for jj in 0..ncols {
                    let cj = &mut chunk[jj * m..(jj + 1) * m];
                    for k in (0..vs.len()).rev() {
                        let v = &vs[k];
                        if crate::vecops::norm2(v) > 0.0 {
                            qr::apply_reflector(v, &mut cj[k..m]);
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemm_matches_serial_bitwise() {
        let a = test_matrix(64, 48, 1);
        let b = test_matrix(48, 80, 2);
        let serial = crate::gemm::gemm_serial(&a, &b).unwrap();
        for threads in [1, 2, 3, 7] {
            for block in [1, 8, 64, 1024] {
                let ctx = LinalgCtx { threads, block_size: block };
                let got = ctx.gemm(&a, &b).unwrap();
                assert_eq!(serial, got, "threads={threads} block={block}");
            }
        }
    }

    #[test]
    fn gemm_large_enough_to_thread() {
        let a = test_matrix(128, 128, 3);
        let b = test_matrix(128, 128, 4);
        let serial = crate::gemm::gemm_serial(&a, &b).unwrap();
        let got = LinalgCtx { threads: 4, block_size: 32 }.gemm(&a, &b).unwrap();
        assert_eq!(serial, got);
    }

    #[test]
    fn gemm_shape_mismatch() {
        let a = test_matrix(4, 3, 5);
        let b = test_matrix(4, 3, 6);
        assert!(LinalgCtx::serial().gemm(&a, &b).is_err());
    }

    #[test]
    fn gram_matches_serial_bitwise() {
        let a = test_matrix(600, 48, 11);
        let serial = a.gram();
        for threads in [2, 3, 5] {
            let got = LinalgCtx::with_threads(threads).gram(&a);
            assert_eq!(serial, got, "threads={threads}");
        }
    }

    #[test]
    fn gram_large_enough_to_thread() {
        // Past the threading threshold, with thread counts that leave
        // uneven panels (and more threads than some panels have columns).
        let a = test_matrix(2048, 48, 13);
        let serial = a.gram();
        for threads in [2, 3, 7, 48] {
            assert_eq!(serial, LinalgCtx::with_threads(threads).gram(&a), "threads={threads}");
        }
    }

    #[test]
    fn gram_small_falls_back() {
        let a = test_matrix(10, 4, 12);
        assert_eq!(LinalgCtx::with_threads(8).gram(&a), a.gram());
    }

    #[test]
    fn blocked_qr_matches_unblocked_bitwise() {
        let a = test_matrix(120, 40, 21);
        let reference = Qr::compute(&a).unwrap();
        for threads in [1, 2, 5] {
            for block in [1, 4, 16, 64] {
                let ctx = LinalgCtx { threads, block_size: block };
                let qr = ctx.qr(&a).unwrap();
                assert_eq!(reference.q, qr.q, "Q threads={threads} block={block}");
                assert_eq!(reference.r, qr.r, "R threads={threads} block={block}");
            }
        }
    }

    #[test]
    fn blocked_qr_reconstructs() {
        let a = test_matrix(200, 64, 33);
        let qr = LinalgCtx { threads: 4, block_size: 16 }.qr(&a).unwrap();
        let recon = qr.q.matmul(&qr.r).unwrap();
        assert!(recon.sub(&a).unwrap().max_abs() < 1e-10);
        let g = qr.q.gram();
        assert!(g.sub(&Matrix::identity(64)).unwrap().max_abs() < 1e-10);
    }

    #[test]
    fn blocked_qr_rejects_wide() {
        assert!(LinalgCtx::serial().qr(&Matrix::zeros(2, 5)).is_err());
    }

    #[test]
    fn default_has_at_least_one_thread() {
        let ctx = LinalgCtx::default();
        assert!(ctx.threads >= 1);
        assert!(ctx.block_size >= 1);
    }
}
