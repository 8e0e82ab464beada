//! Reusable scratch arena for the QBD inner loops.
//!
//! Every logarithmic-reduction iteration is a handful of `m×m` GEMMs
//! and one LU solve.
//! Allocating those temporaries per iteration would dominate the runtime
//! for small phase dimensions and fragment the heap for large ones, so
//! the solvers borrow a thread-local [`Workspace`] instead: four iterate
//! slots, three temporaries and an [`LuWorkspace`], all sized `m×m` and
//! reused across iterations *and* across solves on the same thread.
//!
//! After the first iteration touches every buffer (the warm-up), the
//! inner loops perform **zero heap allocations** — the
//! `qbd.workspace_bytes` gauge emitted from the iteration loops stays
//! flat, and the `workspace_obs` integration test pins that down.
//!
//! All dense products go through [`gemm`], which fronts the blocked
//! kernel from `performa-linalg` and counts invocations on the
//! `qbd.gemm` metric.

use std::cell::RefCell;

use performa_linalg::storage::{gemm_left_into, gemm_right_into};
use performa_linalg::{gemm::gemm_into, lu::LuWorkspace, ClassifiedMatrix, Matrix};

/// Scratch matrices and factorization storage for one phase dimension.
///
/// Field roles are by convention: `x1`/`x2` hold the evolving iterates
/// (`G` and the accumulator `T` in logarithmic reduction), `k1`/`k2`
/// hold per-call constants (the pre-solved up/down kernels), and
/// `t1`–`t3` are per-iteration temporaries with no state across
/// iterations. `lu` is re-factored freely.
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Primary iterate (the G matrix under construction).
    pub x1: Matrix,
    /// Secondary iterate (log-reduction's `T = Π Hᵢ` accumulator).
    pub x2: Matrix,
    /// Per-call constant kernel (e.g. `(−A1)⁻¹·A0`).
    pub k1: Matrix,
    /// Per-call constant kernel (e.g. `(−A1)⁻¹·A2`).
    pub k2: Matrix,
    /// Per-iteration temporary.
    pub t1: Matrix,
    /// Per-iteration temporary.
    pub t2: Matrix,
    /// Reusable LU factorization storage.
    pub lu: LuWorkspace,
}

thread_local! {
    /// One cached workspace per thread; re-grown when the phase
    /// dimension changes, reused verbatim when it does not.
    static CACHE: RefCell<Option<Workspace>> = const { RefCell::new(None) };
}

impl Workspace {
    fn new(m: usize) -> Self {
        Workspace {
            x1: Matrix::zeros(m, m),
            x2: Matrix::zeros(m, m),
            k1: Matrix::zeros(m, m),
            k2: Matrix::zeros(m, m),
            t1: Matrix::zeros(m, m),
            t2: Matrix::zeros(m, m),
            lu: LuWorkspace::new(m),
        }
    }

    /// Phase dimension this workspace is sized for.
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Heap bytes owned by the arena, including this thread's GEMM
    /// packing scratch. Constant once every buffer has been touched —
    /// the signal behind the `qbd.workspace_bytes` gauge.
    pub fn bytes(&self) -> usize {
        let m = self.dim();
        6 * m * m * std::mem::size_of::<f64>()
            + self.lu.bytes()
            + performa_linalg::gemm::pack_bytes()
    }

    /// Emits the `qbd.workspace_bytes` gauge (cheap no-op when metrics
    /// and debug tracing are both off).
    pub fn gauge(&self) {
        if performa_obs::metrics_enabled() || performa_obs::enabled(performa_obs::TraceLevel::Debug)
        {
            performa_obs::gauge_set("qbd.workspace_bytes", self.bytes() as f64);
        }
    }
}

/// Runs `f` with this thread's workspace for phase dimension `m`,
/// creating or re-growing it as needed. The workspace is returned to the
/// cache afterwards, so consecutive solves at the same dimension reuse
/// every buffer.
///
/// Not re-entrant: the solver stages never nest workspace use, and a
/// nested call would panic on the `RefCell` borrow (a programming error,
/// not a runtime condition).
pub(crate) fn with<R>(m: usize, f: impl FnOnce(&mut Workspace) -> R) -> R {
    CACHE.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some(ws) if ws.dim() == m => f(ws),
            _ => f(slot.insert(Workspace::new(m))),
        }
    })
}

/// Counted dense product `C ← α·A·B + β·C` on the blocked kernel.
///
/// Every QBD solver product funnels through here so the `qbd.gemm`
/// counter reflects the exact per-iteration kernel count.
pub(crate) fn gemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    performa_obs::counter_add("qbd.gemm", 1);
    gemm_into(alpha, a, b, beta, c);
}

/// Per-kernel attribution counter: `qbd.kernel.{dense,diagonal}`.
/// Counted *alongside* `qbd.gemm`, so the existing per-iteration GEMM
/// accounting is unchanged by kernel classification.
fn count_kernel(s: &ClassifiedMatrix) {
    let metric = match s.kernel_name() {
        "diagonal" => "qbd.kernel.diagonal",
        _ => "qbd.kernel.dense",
    };
    performa_obs::counter_add(metric, 1);
}

/// Counted structured product `C ← α·S·B + β·C` on a classified left
/// operand; bitwise identical to [`gemm`] on `S.dense()`.
pub(crate) fn gemm_left(alpha: f64, s: &ClassifiedMatrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    performa_obs::counter_add("qbd.gemm", 1);
    count_kernel(s);
    gemm_left_into(alpha, s, b, beta, c);
}

/// Counted structured product `C ← α·A·S + β·C` on a classified right
/// operand; bitwise identical to [`gemm`] on `S.dense()`.
pub(crate) fn gemm_right(alpha: f64, a: &Matrix, s: &ClassifiedMatrix, beta: f64, c: &mut Matrix) {
    performa_obs::counter_add("qbd.gemm", 1);
    count_kernel(s);
    gemm_right_into(alpha, a, s, beta, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_is_cached_per_dimension() {
        let bytes_at_3 = with(3, |ws| {
            assert_eq!(ws.dim(), 3);
            ws.x1[(0, 0)] = 7.0;
            ws.bytes()
        });
        // Same dimension: same buffers (the marker survives).
        with(3, |ws| {
            assert_eq!(ws.x1[(0, 0)], 7.0);
            assert_eq!(ws.bytes(), bytes_at_3);
        });
        // Different dimension: re-grown.
        with(5, |ws| {
            assert_eq!(ws.dim(), 5);
            assert_eq!(ws.x1[(0, 0)], 0.0);
        });
    }

    #[test]
    fn counted_gemm_matches_plain_product() {
        let a = Matrix::from_fn(4, 6, |i, j| (i + 2 * j) as f64 / 3.0);
        let b = Matrix::from_fn(6, 5, |i, j| (2 * i + j) as f64 / 5.0 - 1.0);
        let mut c = Matrix::zeros(4, 5);
        gemm(1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&(&a * &b)) < 1e-14);
    }
}
