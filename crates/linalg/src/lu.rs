//! LU factorization with partial pivoting, linear solves, and inverses.
//!
//! The QBD solver repeatedly solves systems of the form `X · A = B` (row
//! vectors acting from the left, as is conventional in matrix-analytic
//! methods) and `A · X = B`. Both directions are provided on the factored
//! form [`Lu`], so a factorization can be reused across many right-hand
//! sides (`C-INTERMEDIATE`).
//!
//! Two entry points share the same in-place elimination core:
//!
//! * [`Lu::factor`] — allocate-and-factor, the convenient form for
//!   one-shot solves;
//! * [`LuWorkspace`] — factor into caller-owned storage and solve whole
//!   matrices of right-hand sides without any heap allocation, the form
//!   the QBD inner loops use. The workspace additionally keeps a
//!   transposed copy of the factors so left (row-vector) solves run on
//!   unit-stride data.
//!
//! Multi-right-hand-side solves run on two substitution kernels, shared
//! by [`Lu`] and [`LuWorkspace`], serial and threaded:
//!
//! * **right solves** (`A · X = B`) pack `B` 16 columns at a time into a
//!   grow-only thread-local panel buffer; each row of a panel
//!   accumulates in a fixed-size array, i.e. in vector registers, across
//!   its whole elimination loop. The ragged last panel is zero-padded and
//!   its pad lanes are discarded.
//! * **left solves** (`X · A = B`) advance 8 rows of `B` at once, one per
//!   lane of a fixed-size accumulator, over the transposed factors, so
//!   eight serial dot-product chains run side by side.
//!
//! Both give every output element exactly the operation sequence of a
//! plain row-at-a-time loop: ascending `j`, multiply then subtract, the
//! right solve's skip of zero factor entries (decided per `(i, j)`, so
//! equal for every column) and the same final division or reciprocal.
//! Results are therefore bit-identical to those loops, which the kernel
//! tests keep as oracles, and to each other at any thread count.

use std::cell::Cell;

use crate::compensated::Accumulator;
use crate::{LinalgError, Matrix, Result, Vector};

/// How [`LuWorkspace::factor_with`] prepares a system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorOptions {
    /// Row/column equilibration: scale the matrix to unit max-norm rows
    /// and columns before elimination (`Aₛ = R·A·C`), undoing the
    /// scaling transparently inside every solve. Tames the wild row
    /// scales of stiff generators (TPT stage rates spanning `p³²`)
    /// that otherwise distort partial pivoting.
    pub equilibrate: bool,
    /// Keep a copy of the unscaled input so solves can be iteratively
    /// refined against the *original* system
    /// ([`LuWorkspace::solve_mat_refined_into`] and friends require it).
    pub retain: bool,
}

impl FactorOptions {
    /// Equilibration and refinement both enabled — the hardened
    /// configuration the QBD recovery ladder escalates to.
    pub fn hardened() -> Self {
        FactorOptions {
            equilibrate: true,
            retain: true,
        }
    }
}

/// Componentwise backward error at which iterative refinement declares
/// victory: a couple of units in the last place, the best a single
/// `f64` correction loop can reliably certify.
pub const REFINE_TOL: f64 = 4.0 * f64::EPSILON;

/// Correction steps refinement attempts before reporting a stall.
pub const REFINE_MAX_ITERS: usize = 8;

/// Outcome of one iterative-refinement loop.
///
/// The error measure is the Oettli–Prager *componentwise backward
/// error* `ω = maxᵢⱼ |B − A·X|ᵢⱼ / (|A|·|X| + |B|)ᵢⱼ` — the smallest
/// relative perturbation of `A` and `B` for which the computed `X` is
/// exact. `ω ≈ ε` means the solve is as good as f64 allows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineStats {
    /// Correction steps actually applied.
    pub iterations: usize,
    /// Componentwise backward error of the unrefined solve.
    pub initial_backward_error: f64,
    /// Componentwise backward error after refinement.
    pub backward_error: f64,
    /// Whether the requested tolerance was reached (otherwise the loop
    /// stalled or exhausted its budget — the stats say how far it got).
    pub converged: bool,
}

/// In-place partial-pivoting elimination on row-major storage.
///
/// On success `lu` holds the combined factors (unit-lower `L` below the
/// diagonal, `U` on and above), `perm[i]` names the original row stored
/// in position `i`, and the returned value is the permutation sign.
fn factor_in_place(lu: &mut Matrix, perm: &mut [usize]) -> Result<f64> {
    let n = lu.nrows();
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    let mut sign = 1.0;
    for k in 0..n {
        // Partial pivoting: pick the largest magnitude entry in column k.
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val == 0.0 {
            return Err(LinalgError::Singular { pivot: k });
        }
        let data = lu.as_mut_slice();
        if pivot_row != k {
            let (a, b) = data.split_at_mut(pivot_row * n);
            a[k * n..(k + 1) * n].swap_with_slice(&mut b[..n]);
            perm.swap(k, pivot_row);
            sign = -sign;
        }
        // Eliminate below the pivot, operating on whole row tails so the
        // update is a unit-stride axpy.
        let (pivot_rows, below) = data.split_at_mut((k + 1) * n);
        let urow = &pivot_rows[k * n + k..(k + 1) * n];
        let pivot = urow[0];
        for chunk in below.chunks_exact_mut(n) {
            let factor = chunk[k] / pivot;
            chunk[k] = factor;
            if factor != 0.0 {
                let tail = &mut chunk[k + 1..];
                for (t, &u) in tail.iter_mut().zip(&urow[1..]) {
                    *t -= factor * u;
                }
            }
        }
    }
    Ok(sign)
}

/// The multi-right-hand-side solves stay serial below half the GEMM
/// flop gate (substitution reuses data less than a product of the same
/// flop count), even when more kernel threads are configured.
fn par_min_solve_flops() -> usize {
    crate::threading::par_min_flops() / 2
}

/// Column-panel width of the right-solve kernel: one panel row is two
/// AVX-512 (four AVX2) registers, held across a row's whole
/// elimination loop.
const PANEL: usize = 16;

/// Right-hand-side rows the left-solve kernel advances together, one
/// per lane of a fixed-size accumulator.
const LANES: usize = 8;

thread_local! {
    /// Grow-only scratch of the substitution kernels: packed column
    /// panels for right solves, lane-interleaved rows for left solves.
    static SOLVE_SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on `len` elements of this thread's substitution scratch,
/// growing it first if needed. The buffer is taken out of its slot for
/// the duration, so a nested call would see an empty slot and allocate
/// instead of aliasing.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SOLVE_SCRATCH.with(|slot| {
        let mut buf = slot.take();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let out = f(&mut buf[..len]);
        slot.set(buf);
        out
    })
}

/// Heap bytes held by this thread's substitution scratch.
fn scratch_bytes() -> usize {
    SOLVE_SCRATCH.with(|slot| {
        let buf = slot.take();
        let bytes = buf.capacity() * std::mem::size_of::<f64>();
        slot.set(buf);
        bytes
    })
}

/// The right-solve kernel: substitution for `A · X = B` on
/// already-permuted (and, for equilibrated factors, row-scaled) rows.
/// `data` is a row-major `n × w` buffer holding `P·B` on entry and `X`
/// on return.
///
/// The columns go through [`substitute_panel`] in [`PANEL`]-wide packed
/// panels, the ragged last one zero-padded. Serially one panel of
/// scratch is reused for each in turn; with `workers > 1` each scoped
/// thread packs and solves a contiguous run of panels from the shared
/// input, and the calling thread unpacks them all after the join. A
/// column's arithmetic never depends on its neighbours, so neither the
/// panel split nor the thread split can change a bit.
fn substitute_rows(lu: &Matrix, data: &mut [f64], w: usize, workers: usize) {
    let n = lu.nrows();
    if n == 0 || w == 0 {
        return;
    }
    let panels = w.div_ceil(PANEL);
    let stride = n * PANEL;
    let workers = workers.clamp(1, panels);
    if workers == 1 {
        with_scratch(stride, |panel| {
            for p in 0..panels {
                pack_panel(data, w, p, panel);
                substitute_panel(lu, panel.as_chunks_mut().0);
                unpack_panel(panel, data, w, p);
            }
        });
        return;
    }
    with_scratch(panels * stride, |packed| {
        let bounds = crate::threading::partition_blocks(panels, workers);
        let src: &[f64] = data;
        std::thread::scope(|scope| {
            let mut rest = &mut *packed;
            for run in bounds.windows(2) {
                let (mine, tail) = rest.split_at_mut((run[1] - run[0]) * stride);
                rest = tail;
                let first = run[0];
                scope.spawn(move || {
                    for (k, panel) in mine.chunks_exact_mut(stride).enumerate() {
                        pack_panel(src, w, first + k, panel);
                        substitute_panel(lu, panel.as_chunks_mut().0);
                    }
                });
            }
        });
        for (p, panel) in packed.chunks_exact(stride).enumerate() {
            unpack_panel(panel, data, w, p);
        }
    });
}

/// Copies panel `p` (columns `p·PANEL ..`) of the row-major width-`w`
/// `data` into `panel`, zero-padding the columns past `w`.
fn pack_panel(data: &[f64], w: usize, p: usize, panel: &mut [f64]) {
    let (c0, c1) = (p * PANEL, ((p + 1) * PANEL).min(w));
    for (dst, row) in panel.chunks_exact_mut(PANEL).zip(data.chunks_exact(w)) {
        dst[..c1 - c0].copy_from_slice(&row[c0..c1]);
        dst[c1 - c0..].fill(0.0);
    }
}

/// Writes the live columns of a packed `panel` back to panel `p` of
/// `data`; the pad columns are dropped.
fn unpack_panel(panel: &[f64], data: &mut [f64], w: usize, p: usize) {
    let (c0, c1) = (p * PANEL, ((p + 1) * PANEL).min(w));
    for (src, row) in panel.chunks_exact(PANEL).zip(data.chunks_exact_mut(w)) {
        row[c0..c1].copy_from_slice(&src[..c1 - c0]);
    }
}

/// Forward then backward substitution on one packed panel, `rows[i]`
/// being the panel's slice of right-hand-side row `i`.
///
/// Row `i` accumulates in a register-resident `[f64; PANEL]` over its
/// whole `j` loop, with the per-element sequence of a plain
/// row-at-a-time loop: ascending `j`, `x −= l·y`, skipped where the
/// factor entry is zero, and finally `x *= 1/u_ii`.
fn substitute_panel(lu: &Matrix, rows: &mut [[f64; PANEL]]) {
    let n = rows.len();
    // Forward: L y = P b.
    for i in 1..n {
        let (solved, rest) = rows.split_at_mut(i);
        let mut acc = rest[0];
        for (&l, y) in lu.row(i)[..i].iter().zip(solved.iter()) {
            if l != 0.0 {
                for (a, &v) in acc.iter_mut().zip(y) {
                    *a -= l * v;
                }
            }
        }
        rest[0] = acc;
    }
    // Backward: U x = y.
    for i in (0..n).rev() {
        let (head, solved) = rows.split_at_mut(i + 1);
        let urow = lu.row(i);
        let mut acc = head[i];
        for (&u, x) in urow[i + 1..].iter().zip(solved.iter()) {
            if u != 0.0 {
                for (a, &v) in acc.iter_mut().zip(x) {
                    *a -= u * v;
                }
            }
        }
        let inv = 1.0 / urow[i];
        for a in &mut acc {
            *a *= inv;
        }
        head[i] = acc;
    }
}

/// What the left-solve kernel reads of a factorization.
#[derive(Clone, Copy)]
struct LeftFactors<'a> {
    /// Transposed combined factors: `Uᵀ` on and below the diagonal,
    /// unit-diagonal `Lᵀ` above it.
    lut: &'a Matrix,
    perm: &'a [usize],
    /// `(row_scale, col_scale)` of an equilibrated factorization.
    scales: Option<(&'a [f64], &'a [f64])>,
}

/// The left-solve kernel: `X · A = B` for every row of the row-major
/// `b` (rows of width `n`) into the matching rows of `x`.
///
/// Rows go through [`solve_left_batch`] [`LANES`] at a time. With
/// `workers > 1` contiguous runs of whole batches go to scoped threads,
/// each with its own slice of the calling thread's scratch. Lanes never
/// interact, so neither the batching nor the thread split can change a
/// bit.
fn solve_left_rows(f: LeftFactors<'_>, b: &[f64], x: &mut [f64], workers: usize) {
    let n = f.lut.nrows();
    if n == 0 || b.is_empty() {
        return;
    }
    let batch = n * LANES;
    let batches = b.len().div_ceil(batch);
    let workers = workers.clamp(1, batches);
    with_scratch(workers * batch, |scratch| {
        if workers == 1 {
            solve_left_run(f, b, x, scratch.as_chunks_mut().0);
            return;
        }
        let bounds = crate::threading::partition_blocks(batches, workers);
        std::thread::scope(|scope| {
            let (mut b_rest, mut x_rest) = (b, x);
            for (run, y) in bounds.windows(2).zip(scratch.chunks_exact_mut(batch)) {
                let len = ((run[1] - run[0]) * batch).min(b_rest.len());
                let (b_mine, b_tail) = b_rest.split_at(len);
                let (x_mine, x_tail) = x_rest.split_at_mut(len);
                (b_rest, x_rest) = (b_tail, x_tail);
                scope.spawn(move || solve_left_run(f, b_mine, x_mine, y.as_chunks_mut().0));
            }
        });
    });
}

/// Serial driver of [`solve_left_rows`]: consecutive batches of
/// [`LANES`] rows, the last one possibly ragged.
fn solve_left_run(f: LeftFactors<'_>, b: &[f64], x: &mut [f64], y: &mut [[f64; LANES]]) {
    let batch = f.lut.nrows() * LANES;
    for (b, x) in b.chunks(batch).zip(x.chunks_mut(batch)) {
        solve_left_batch(f, b, x, y);
    }
}

/// Left solves `x·A = b` for up to [`LANES`] rows at once: forward on
/// `Uᵀ`, backward on `Lᵀ` in place in `y` (one `[f64; LANES]` per
/// unknown, lane `l` holding row `l`), then scatter through `P`.
///
/// For equilibrated factors (`x·R⁻¹AₛC⁻¹ = b`) the right-hand side is
/// prescaled by the column scales on the way in and the solution
/// postscaled by the row scales on the way out.
///
/// Each lane runs the per-element sequence of a plain one-row loop
/// (ascending `j`, `acc −= u·y`, then `acc / u_ii` in the forward
/// sweep), but the `LANES` serial dot-product chains now advance side
/// by side in registers. Lanes past the last row start at zero and are
/// never written out.
fn solve_left_batch(f: LeftFactors<'_>, b: &[f64], x: &mut [f64], y: &mut [[f64; LANES]]) {
    let lut = f.lut;
    let n = lut.nrows();
    for i in 0..n {
        let row = lut.row(i);
        let mut acc = [0.0; LANES];
        for (a, brow) in acc.iter_mut().zip(b.chunks_exact(n)) {
            *a = match f.scales {
                Some((_, col_scale)) => brow[i] * col_scale[i],
                None => brow[i],
            };
        }
        for (&u, yj) in row[..i].iter().zip(y.iter()) {
            for (a, &v) in acc.iter_mut().zip(yj) {
                *a -= u * v;
            }
        }
        let pivot = row[i];
        for (yi, a) in y[i].iter_mut().zip(acc) {
            *yi = a / pivot;
        }
    }
    for i in (0..n).rev() {
        let (head, solved) = y.split_at_mut(i + 1);
        let mut acc = head[i];
        for (&l, z) in lut.row(i)[i + 1..].iter().zip(solved.iter()) {
            for (a, &v) in acc.iter_mut().zip(z) {
                *a -= l * v;
            }
        }
        head[i] = acc;
    }
    for (lane, xrow) in x.chunks_exact_mut(n).enumerate() {
        for (yi, &p) in y.iter().zip(f.perm) {
            xrow[p] = match f.scales {
                Some((row_scale, _)) => yi[lane] * row_scale[p],
                None => yi[lane],
            };
        }
    }
}

/// Single right-hand-side solve `A · x = b` against factored data.
fn solve_vec_with(lu: &Matrix, perm: &[usize], b: &[f64], x: &mut [f64]) {
    for (i, &p) in perm.iter().enumerate() {
        x[i] = b[p];
    }
    substitute_vec_in_place(lu, x);
}

/// Forward/backward substitution for a single right-hand side whose
/// rows are already permuted (and, for equilibrated factors, scaled).
fn substitute_vec_in_place(lu: &Matrix, x: &mut [f64]) {
    let n = lu.nrows();
    for i in 1..n {
        let (solved, current) = x.split_at_mut(i);
        let mut acc = current[0];
        for (&lij, &xj) in lu.row(i)[..i].iter().zip(solved.iter()) {
            acc -= lij * xj;
        }
        current[0] = acc;
    }
    for i in (0..n).rev() {
        let (current, solved) = x.split_at_mut(i + 1);
        let row = lu.row(i);
        let mut acc = current[i];
        for (&uij, &xj) in row[i + 1..].iter().zip(solved.iter()) {
            acc -= uij * xj;
        }
        current[i] = acc / row[i];
    }
}

/// One Oettli–Prager term `|r| / (|A||X| + |B|)`; zero denominators with
/// zero residuals are exact, non-finite residuals are reported as
/// unbounded so a destroyed solve can never look converged.
#[inline]
fn omega_term(r: f64, denom: f64) -> f64 {
    if !r.is_finite() {
        f64::INFINITY
    } else if denom > 0.0 {
        (r / denom).abs()
    } else if r == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Writes the residual `R = B − A·X` into `resid` using compensated
/// (twice-working-precision) dot products and returns the componentwise
/// backward error `ω = maxᵢⱼ |R|ᵢⱼ / (|A|·|X| + |B|)ᵢⱼ`.
fn residual_omega_right(a: &Matrix, x: &Matrix, b: &Matrix, resid: &mut Matrix) -> f64 {
    let n = a.nrows();
    let w = b.ncols();
    let mut omega = 0.0_f64;
    for i in 0..n {
        let arow = a.row(i);
        for j in 0..w {
            let bij = b[(i, j)];
            let mut acc = Accumulator::new();
            acc.add(bij);
            let mut denom = bij.abs();
            for (k, &aik) in arow.iter().enumerate() {
                let xkj = x[(k, j)];
                acc.add_product(-aik, xkj);
                denom += aik.abs() * xkj.abs();
            }
            let r = acc.value();
            resid[(i, j)] = r;
            omega = omega.max(omega_term(r, denom));
        }
    }
    omega
}

/// Left-system counterpart of [`residual_omega_right`]: residual
/// `R = B − X·A` and its componentwise backward error.
fn residual_omega_left(a: &Matrix, x: &Matrix, b: &Matrix, resid: &mut Matrix) -> f64 {
    let n = a.nrows();
    let mut omega = 0.0_f64;
    for i in 0..b.nrows() {
        let xrow = x.row(i);
        for j in 0..n {
            let bij = b[(i, j)];
            let mut acc = Accumulator::new();
            acc.add(bij);
            let mut denom = bij.abs();
            for (k, &xik) in xrow.iter().enumerate() {
                let akj = a[(k, j)];
                acc.add_product(-xik, akj);
                denom += xik.abs() * akj.abs();
            }
            let r = acc.value();
            resid[(i, j)] = r;
            omega = omega.max(omega_term(r, denom));
        }
    }
    omega
}

/// Hager-style lower-bound estimate of `‖A⁻¹‖₁` on factored data
/// (Hager 1984, as refined by Higham): a handful of forward/adjoint
/// solves, `O(k·n²)` instead of the `O(n³)` of an explicit inverse.
fn inverse_norm_one_estimate_with(lu: &Matrix, lut: &Matrix, perm: &[usize]) -> f64 {
    let n = lu.nrows();
    if n == 0 {
        return 0.0;
    }
    let left = LeftFactors {
        lut,
        perm,
        scales: None,
    };
    // Start from the averaging vector; at most 5 refinement sweeps
    // (Higham's estimator almost always converges in 2).
    let mut x = vec![1.0 / n as f64; n];
    let mut y = vec![0.0; n];
    let mut xi = vec![0.0; n];
    let mut z = vec![0.0; n];
    let mut estimate = 0.0;
    let mut visited = vec![false; n];
    for _ in 0..5 {
        solve_vec_with(lu, perm, &x, &mut y);
        estimate = y.iter().map(|v| v.abs()).sum();
        if !estimate.is_finite() {
            return f64::INFINITY;
        }
        // ξ = sign(y); solve z·A = ξ as a row system.
        for (s, &v) in xi.iter_mut().zip(&y) {
            *s = if v >= 0.0 { 1.0 } else { -1.0 };
        }
        solve_left_rows(left, &xi, &mut z, 1);
        if !z.iter().all(|v| v.is_finite()) {
            return f64::INFINITY;
        }
        let (mut j_max, mut z_max) = (0, 0.0);
        for (j, &zj) in z.iter().enumerate() {
            if zj.abs() > z_max {
                z_max = zj.abs();
                j_max = j;
            }
        }
        // Converged when the dual norm stops growing, or when the
        // estimator revisits a unit vector (it would cycle).
        let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        if z_max <= zx || visited[j_max] {
            break;
        }
        visited[j_max] = true;
        x.fill(0.0);
        x[j_max] = 1.0;
    }
    estimate
}

/// An LU factorization `P·A = L·U` of a square matrix with partial pivoting.
///
/// # Example
///
/// ```
/// use performa_linalg::{Matrix, Vector, lu::Lu};
///
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve_vec(&Vector::from(vec![10.0, 12.0]))?;
/// // A x = b  =>  x = [1, 2]
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), performa_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row stored in position `i`.
    perm: Vec<usize>,
    /// Parity of the permutation (+1.0 or -1.0), for determinants.
    sign: f64,
    /// 1-norm of the original matrix, kept for condition estimation.
    a_norm1: f64,
}

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is rectangular.
    /// * [`LinalgError::Singular`] if a pivot is exactly zero (the matrix is
    ///   singular to working precision).
    pub fn factor(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let started = performa_obs::timing_active().then(std::time::Instant::now);
        let n = a.nrows();
        let a_norm1 = a.norm_one();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = vec![0; n];
        let sign = factor_in_place(&mut lu, &mut perm)?;

        if let Some(t0) = started {
            performa_obs::histogram_record("linalg.lu.factor_s", t0.elapsed().as_secs_f64());
        }
        Ok(Lu {
            lu,
            perm,
            sign,
            a_norm1,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A · x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_vec",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        solve_vec_with(&self.lu, &self.perm, b.as_slice(), &mut x);
        Ok(Vector::from(x))
    }

    /// Solves `A · X = B` for all right-hand-side columns at once on the
    /// column-panel substitution kernel.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `B.nrows() != dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_mat",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        for (i, &p) in self.perm.iter().enumerate() {
            out.row_mut(i).copy_from_slice(b.row(p));
        }
        substitute_rows(&self.lu, out.as_mut_slice(), b.ncols(), 1);
        Ok(out)
    }

    /// Solves `x · A = b` (row-vector system) for a single right-hand side.
    ///
    /// This is the natural direction for stationary-vector computations.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_left_vec(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_left_vec",
                left: (1, b.len()),
                right: (n, n),
            });
        }
        let mut x = vec![0.0; n];
        self.solve_left_into(b.as_slice(), &mut x);
        Ok(Vector::from(x))
    }

    /// Solves `X · A = B`, eight rows at a time.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `B.ncols() != dim()`.
    pub fn solve_left_mat(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_left_mat",
                left: b.shape(),
                right: (n, n),
            });
        }
        let mut out = Matrix::zeros(b.nrows(), n);
        self.solve_left_into(b.as_slice(), out.as_mut_slice());
        Ok(out)
    }

    /// Computes the inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (cannot occur for a valid factorization).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_mat(&Matrix::identity(self.dim()))
    }

    /// 1-norm `‖A‖₁` of the original (unfactored) matrix.
    pub fn norm_one(&self) -> f64 {
        self.a_norm1
    }

    /// Hager-style lower-bound estimate of `‖A⁻¹‖₁`.
    ///
    /// Runs a handful of forward/adjoint solves on the existing factors
    /// (Hager 1984, as refined by Higham) — `O(k·n²)` on top of the
    /// factorization instead of the `O(n³)` an explicit inverse would
    /// cost. The estimate is a lower bound that is almost always within a
    /// small factor of the true norm.
    pub fn inverse_norm_one_estimate(&self) -> f64 {
        inverse_norm_one_estimate_with(&self.lu, &self.lu.transpose(), &self.perm)
    }

    /// Cheap 1-norm condition-number estimate `κ₁(A) ≈ ‖A‖₁·‖A⁻¹‖₁`.
    ///
    /// Uses [`Lu::inverse_norm_one_estimate`]; the result is a lower
    /// bound on the true `κ₁`. Returns `f64::INFINITY` when the factors
    /// have decayed to non-finite values (numerically destroyed systems).
    pub fn condition_estimate(&self) -> f64 {
        if self.dim() == 0 {
            return 1.0;
        }
        let kappa = self.a_norm1 * self.inverse_norm_one_estimate();
        performa_obs::histogram_record("linalg.lu.condition", kappa);
        kappa
    }

    /// Left solves on the left-solve kernel. The transposed factors it
    /// reads are made per call rather than kept beside `lu`: `Lu`'s left
    /// solves are one-off, and most factorizations never make one.
    fn solve_left_into(&self, b: &[f64], x: &mut [f64]) {
        let lut = self.lu.transpose();
        let left = LeftFactors {
            lut: &lut,
            perm: &self.perm,
            scales: None,
        };
        solve_left_rows(left, b, x, 1);
    }
}

/// Reusable LU storage: factor into caller-owned buffers, solve many
/// right-hand sides, re-factor the next matrix — all without heap
/// allocation after construction.
///
/// This is the factorization form used inside the QBD fixed-point loops,
/// where a fresh system is factored every iteration. Besides the combined
/// factors it keeps a transposed copy so left (row-vector) solves read
/// unit-stride data.
///
/// # Example
///
/// ```
/// use performa_linalg::{lu::LuWorkspace, Matrix};
///
/// let mut ws = LuWorkspace::new(2);
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
/// let b = Matrix::identity(2);
/// let mut x = Matrix::zeros(2, 2);
/// ws.factor(&a)?;
/// ws.solve_mat_into(&b, &mut x)?; // x = A⁻¹
/// let round_trip = &a * &x;
/// assert!(round_trip.max_abs_diff(&Matrix::identity(2)) < 1e-12);
/// # Ok::<(), performa_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    /// Combined factors of the most recent [`LuWorkspace::factor`] call.
    lu: Matrix,
    /// Transposed factors, kept in sync for unit-stride left solves.
    lut: Matrix,
    perm: Vec<usize>,
    /// Row equilibration scales `r` (`Aₛ = R·A·C`); all ones when
    /// equilibration is off.
    row_scale: Vec<f64>,
    /// Column equilibration scales `c`.
    col_scale: Vec<f64>,
    equilibrated: bool,
    /// Unscaled copy of the factored matrix, kept only when
    /// [`FactorOptions::retain`] asked for refinement support.
    retained: Option<Matrix>,
    /// Residual / correction buffers for refinement, grown on first use.
    refine_buf: Option<Box<(Matrix, Matrix)>>,
    a_norm1: f64,
    factored: bool,
}

impl LuWorkspace {
    /// Allocates workspace for `n × n` systems.
    pub fn new(n: usize) -> Self {
        LuWorkspace {
            lu: Matrix::zeros(n, n),
            lut: Matrix::zeros(n, n),
            perm: vec![0; n],
            row_scale: vec![1.0; n],
            col_scale: vec![1.0; n],
            equilibrated: false,
            retained: None,
            refine_buf: None,
            a_norm1: 0.0,
            factored: false,
        }
    }

    /// Dimension of the systems this workspace holds.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Heap bytes owned by this workspace, plus this thread's grow-only
    /// substitution scratch (for observability gauges).
    pub fn bytes(&self) -> usize {
        let n = self.dim();
        let f64s = std::mem::size_of::<f64>();
        let mat = |m: &Matrix| m.nrows() * m.ncols() * f64s;
        2 * n * n * f64s
            + n * std::mem::size_of::<usize>()
            + 2 * n * f64s
            + scratch_bytes()
            + self.retained.as_ref().map_or(0, mat)
            + self
                .refine_buf
                .as_ref()
                .map_or(0, |b| mat(&b.0) + mat(&b.1))
    }

    /// Factors `a` into the workspace, replacing any previous factors.
    ///
    /// Equivalent to [`LuWorkspace::factor_with`] with default options
    /// (no equilibration, no retained copy) — the bit-identical fast
    /// path the solver inner loops use.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] if `a` is not `dim() × dim()`.
    /// * [`LinalgError::Singular`] on an exactly zero pivot; the
    ///   workspace is left unfactored.
    pub fn factor(&mut self, a: &Matrix) -> Result<()> {
        self.factor_with(a, FactorOptions::default())
    }

    /// Factors `a` with explicit [`FactorOptions`].
    ///
    /// With `equilibrate` the workspace factors `Aₛ = R·A·C` (rows then
    /// columns scaled to unit max-norm) and undoes the scaling inside
    /// every subsequent solve, so callers see solutions of the original
    /// system. With `retain` an unscaled copy of `a` is kept so the
    /// `*_refined_into` solves can iterate against the true residual.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::factor`].
    pub fn factor_with(&mut self, a: &Matrix, opts: FactorOptions) -> Result<()> {
        let n = self.dim();
        if a.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "LuWorkspace::factor",
                left: (n, n),
                right: a.shape(),
            });
        }
        let started = performa_obs::timing_active().then(std::time::Instant::now);
        self.factored = false;
        self.lu.copy_from(a);
        if opts.retain {
            match &mut self.retained {
                Some(r) if r.shape() == (n, n) => r.copy_from(a),
                slot => *slot = Some(a.clone()),
            }
        } else {
            self.retained = None;
        }
        if opts.equilibrate {
            self.equilibrate_in_place();
        } else {
            self.equilibrated = false;
            self.row_scale.fill(1.0);
            self.col_scale.fill(1.0);
        }
        // Norm of the matrix actually factored, so the condition
        // estimate describes the system substitution runs on.
        self.a_norm1 = self.lu.norm_one();
        factor_in_place(&mut self.lu, &mut self.perm)?;
        self.lu.transpose_into(&mut self.lut);
        self.factored = true;
        if let Some(t0) = started {
            performa_obs::histogram_record("linalg.lu.factor_s", t0.elapsed().as_secs_f64());
        }
        Ok(())
    }

    /// Scales `self.lu` to unit max-norm rows, then unit max-norm
    /// columns, recording the scales for the solve paths. Rows or
    /// columns that are all zero (or non-finite) keep scale 1 so the
    /// singularity surfaces in elimination instead of here.
    fn equilibrate_in_place(&mut self) {
        let n = self.dim();
        for i in 0..n {
            let row = self.lu.row_mut(i);
            let max = row.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
            let r = if max > 0.0 && max.is_finite() {
                1.0 / max
            } else {
                1.0
            };
            self.row_scale[i] = r;
            if r != 1.0 {
                for v in row.iter_mut() {
                    *v *= r;
                }
            }
        }
        self.col_scale.fill(0.0);
        for i in 0..n {
            for (m, &v) in self.col_scale.iter_mut().zip(self.lu.row(i)) {
                *m = m.max(v.abs());
            }
        }
        for c in &mut self.col_scale {
            *c = if *c > 0.0 && c.is_finite() { 1.0 / *c } else { 1.0 };
        }
        for i in 0..n {
            for (v, &c) in self.lu.row_mut(i).iter_mut().zip(&self.col_scale) {
                if c != 1.0 {
                    *v *= c;
                }
            }
        }
        self.equilibrated = true;
    }

    /// Whether the current factorization was equilibrated.
    pub fn is_equilibrated(&self) -> bool {
        self.equilibrated
    }

    fn require_factored(&self, op: &'static str) -> Result<()> {
        if self.factored {
            Ok(())
        } else {
            Err(LinalgError::InvalidArgument {
                message: format!("{op}: workspace holds no factorization"),
            })
        }
    }

    /// Solves `A · X = B` into `out` on the column-panel substitution
    /// kernel (allocation-free once this thread's scratch has grown).
    ///
    /// Large right-hand sides run the substitution on the process-wide
    /// kernel thread count ([`crate::threading::threads`]); parallel
    /// results are bitwise identical to serial.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] on shape disagreement;
    /// [`LinalgError::InvalidArgument`] if nothing has been factored.
    pub fn solve_mat_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        let n = self.dim();
        let flops = 2usize
            .saturating_mul(n)
            .saturating_mul(n)
            .saturating_mul(b.ncols());
        let workers = if flops >= par_min_solve_flops() {
            crate::threading::threads()
        } else {
            1
        };
        self.solve_mat_into_threaded(b, out, workers)
    }

    /// [`LuWorkspace::solve_mat_into`] with an explicit worker count,
    /// bypassing both the process-wide setting and the size threshold.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_mat_into_threaded(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        workers: usize,
    ) -> Result<()> {
        self.require_factored("solve_mat_into")?;
        let n = self.dim();
        if b.nrows() != n || out.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_mat_into",
                left: b.shape(),
                right: out.shape(),
            });
        }
        for (i, &p) in self.perm.iter().enumerate() {
            out.row_mut(i).copy_from_slice(b.row(p));
            if self.equilibrated {
                let r = self.row_scale[p];
                for v in out.row_mut(i).iter_mut() {
                    *v *= r;
                }
            }
        }
        substitute_rows(&self.lu, out.as_mut_slice(), b.ncols(), workers);
        if self.equilibrated {
            for (i, &c) in self.col_scale.iter().enumerate() {
                for v in out.row_mut(i).iter_mut() {
                    *v *= c;
                }
            }
        }
        Ok(())
    }

    /// Solves `X · A = B` into `out` on the lane-batched left-solve
    /// kernel over the transposed factors (allocation-free once this
    /// thread's scratch has grown).
    ///
    /// Large right-hand sides distribute independent rows over the
    /// process-wide kernel thread count
    /// ([`crate::threading::threads`]); parallel results are bitwise
    /// identical to serial.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_left_mat_into(&self, b: &Matrix, out: &mut Matrix) -> Result<()> {
        let n = self.dim();
        let flops = 2usize
            .saturating_mul(n)
            .saturating_mul(n)
            .saturating_mul(b.nrows());
        let workers = if flops >= par_min_solve_flops() {
            crate::threading::threads()
        } else {
            1
        };
        self.solve_left_mat_into_threaded(b, out, workers)
    }

    /// [`LuWorkspace::solve_left_mat_into`] with an explicit worker
    /// count, bypassing both the process-wide setting and the size
    /// threshold.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_left_mat_into_threaded(
        &self,
        b: &Matrix,
        out: &mut Matrix,
        workers: usize,
    ) -> Result<()> {
        self.require_factored("solve_left_mat_into")?;
        let n = self.dim();
        if b.ncols() != n || out.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_left_mat_into",
                left: b.shape(),
                right: out.shape(),
            });
        }
        let left = LeftFactors {
            lut: &self.lut,
            perm: &self.perm,
            scales: self
                .equilibrated
                .then_some((&self.row_scale[..], &self.col_scale[..])),
        };
        solve_left_rows(left, b.as_slice(), out.as_mut_slice(), workers);
        Ok(())
    }

    /// Solves `A · x = b` into `out` (allocation-free).
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_into`].
    pub fn solve_vec_into(&self, b: &Vector, out: &mut Vector) -> Result<()> {
        self.require_factored("solve_vec_into")?;
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "solve_vec_into",
                left: (b.len(), 1),
                right: (out.len(), 1),
            });
        }
        let x = out.as_mut_slice();
        let bs = b.as_slice();
        if self.equilibrated {
            for (i, &p) in self.perm.iter().enumerate() {
                x[i] = bs[p] * self.row_scale[p];
            }
            substitute_vec_in_place(&self.lu, x);
            for (xi, &c) in x.iter_mut().zip(&self.col_scale) {
                *xi *= c;
            }
        } else {
            solve_vec_with(&self.lu, &self.perm, bs, x);
        }
        Ok(())
    }

    /// Takes (or grows) the residual/correction buffers for a
    /// refinement pass over a `rows × cols` right-hand side.
    fn take_refine_buf(&mut self, rows: usize, cols: usize) -> Box<(Matrix, Matrix)> {
        match self.refine_buf.take() {
            Some(b) if b.0.shape() == (rows, cols) => b,
            _ => Box::new((Matrix::zeros(rows, cols), Matrix::zeros(rows, cols))),
        }
    }

    /// Temporarily removes the retained original matrix so refinement
    /// can solve corrections through `&self` without aliasing it.
    fn take_retained(&mut self, op: &'static str) -> Result<Matrix> {
        self.retained.take().ok_or_else(|| LinalgError::InvalidArgument {
            message: format!("{op}: refinement requires FactorOptions::retain at factor time"),
        })
    }

    /// Solves `A · X = B` and iteratively refines the result against the
    /// retained original system until the Oettli–Prager componentwise
    /// backward error reaches [`REFINE_TOL`] or stalls.
    ///
    /// Residuals are computed in twice working precision (FMA product
    /// splitting + Neumaier accumulation); a correction step is kept
    /// only if it strictly improves the backward error, so the refined
    /// answer is never worse than the plain solve. The final error is
    /// published on the `linalg.refine_residual` gauge.
    ///
    /// # Errors
    ///
    /// As [`LuWorkspace::solve_mat_into`], plus
    /// [`LinalgError::InvalidArgument`] when the factorization was made
    /// without [`FactorOptions::retain`].
    pub fn solve_mat_refined_into(&mut self, b: &Matrix, out: &mut Matrix) -> Result<RefineStats> {
        self.solve_mat_into(b, out)?;
        let a = self.take_retained("solve_mat_refined_into")?;
        let mut bufs = self.take_refine_buf(b.nrows(), b.ncols());
        let (resid, corr) = &mut *bufs;
        let initial = residual_omega_right(&a, out, b, resid);
        let mut omega = initial;
        let mut iterations = 0;
        while omega > REFINE_TOL && iterations < REFINE_MAX_ITERS {
            if self.solve_mat_into(resid, corr).is_err() {
                break;
            }
            *out += &*corr;
            let improved = residual_omega_right(&a, out, b, resid);
            if improved < omega {
                omega = improved;
                iterations += 1;
            } else {
                *out -= &*corr;
                break;
            }
        }
        self.retained = Some(a);
        self.refine_buf = Some(bufs);
        performa_obs::gauge_set("linalg.refine_residual", omega);
        Ok(RefineStats {
            iterations,
            initial_backward_error: initial,
            backward_error: omega,
            converged: omega <= REFINE_TOL,
        })
    }

    /// Left-system counterpart of
    /// [`LuWorkspace::solve_mat_refined_into`]: solves `X · A = B` and
    /// refines against the retained original system.
    ///
    /// # Errors
    ///
    /// See [`LuWorkspace::solve_mat_refined_into`].
    pub fn solve_left_mat_refined_into(
        &mut self,
        b: &Matrix,
        out: &mut Matrix,
    ) -> Result<RefineStats> {
        self.solve_left_mat_into(b, out)?;
        let a = self.take_retained("solve_left_mat_refined_into")?;
        let mut bufs = self.take_refine_buf(b.nrows(), b.ncols());
        let (resid, corr) = &mut *bufs;
        let initial = residual_omega_left(&a, out, b, resid);
        let mut omega = initial;
        let mut iterations = 0;
        while omega > REFINE_TOL && iterations < REFINE_MAX_ITERS {
            if self.solve_left_mat_into(resid, corr).is_err() {
                break;
            }
            *out += &*corr;
            let improved = residual_omega_left(&a, out, b, resid);
            if improved < omega {
                omega = improved;
                iterations += 1;
            } else {
                *out -= &*corr;
                break;
            }
        }
        self.retained = Some(a);
        self.refine_buf = Some(bufs);
        performa_obs::gauge_set("linalg.refine_residual", omega);
        Ok(RefineStats {
            iterations,
            initial_backward_error: initial,
            backward_error: omega,
            converged: omega <= REFINE_TOL,
        })
    }

    /// Cheap 1-norm condition-number estimate of the factored matrix;
    /// see [`Lu::condition_estimate`].
    ///
    /// For an equilibrated factorization the estimate describes the
    /// scaled system that substitution actually runs on.
    ///
    /// Allocates a few length-`n` scratch vectors — intended for
    /// per-solve diagnostics, not the per-iteration hot path.
    pub fn condition_estimate(&self) -> f64 {
        if self.dim() == 0 || !self.factored {
            return 1.0;
        }
        let kappa = self.a_norm1 * inverse_norm_one_estimate_with(&self.lu, &self.lut, &self.perm);
        performa_obs::histogram_record("linalg.lu.condition", kappa);
        kappa
    }
}

/// Convenience: solves `A · x = b` with a fresh factorization.
///
/// # Errors
///
/// See [`Lu::factor`] and [`Lu::solve_vec`].
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector> {
    Lu::factor(a)?.solve_vec(b)
}

/// Convenience: computes `A⁻¹` with a fresh factorization.
///
/// # Errors
///
/// See [`Lu::factor`].
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    Lu::factor(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = Vector::from(vec![5.0, 10.0]);
        let x = solve(&a, &b).unwrap();
        assert!(approx(x[0], 1.0, 1e-12));
        assert!(approx(x[1], 3.0, 1e-12));
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&a, &Vector::from(vec![2.0, 3.0])).unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn not_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[
            &[4.0, 2.0, 0.5],
            &[2.0, 5.0, 1.0],
            &[0.5, 1.0, 3.0],
        ]);
        let ainv = inverse(&a).unwrap();
        let prod = &a * &ainv;
        assert!(prod.max_abs_diff(&Matrix::identity(3)) < 1e-12);
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!(approx(lu.det(), -2.0, 1e-12));

        // Permutation parity: swapping rows flips the determinant sign.
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]);
        assert!(approx(Lu::factor(&b).unwrap().det(), 2.0, 1e-12));
    }

    #[test]
    fn left_solve_matches_transpose_solve() {
        let a = Matrix::from_rows(&[
            &[3.0, 1.0, 0.0],
            &[1.0, 4.0, 2.0],
            &[0.0, 2.0, 5.0],
        ]);
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = Lu::factor(&a).unwrap().solve_left_vec(&b).unwrap();
        // Verify x·A = b directly.
        let xa = a.vec_mul(&x);
        assert!(xa.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn left_solve_with_pivoting() {
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 1.0],
            &[1.0, 0.0, 3.0],
            &[4.0, 1.0, 0.0],
        ]);
        let b = Vector::from(vec![5.0, -1.0, 2.5]);
        let x = Lu::factor(&a).unwrap().solve_left_vec(&b).unwrap();
        assert!(a.vec_mul(&x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[8.0, 12.0]]);
        let x = Lu::factor(&a).unwrap().solve_mat(&b).unwrap();
        assert_eq!(x, Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 3.0]]));
    }

    #[test]
    fn solve_mat_with_pivoting_matches_column_solves() {
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 1.0],
            &[1.0, 0.0, 3.0],
            &[4.0, 1.0, 0.0],
        ]);
        let b = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64 / 7.0 - 1.0);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        for j in 0..5 {
            let col = lu.solve_vec(&b.col(j)).unwrap();
            for i in 0..3 {
                assert!(approx(x[(i, j)], col[i], 1e-13), "({i},{j})");
            }
        }
        assert!((&a * &x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn solve_left_mat_rows() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let x = Lu::factor(&a).unwrap().solve_left_mat(&b).unwrap();
        let back = &x * &a;
        assert!(back.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn shape_mismatch_reported() {
        let lu = Lu::factor(&Matrix::identity(2)).unwrap();
        assert!(matches!(
            lu.solve_vec(&Vector::zeros(3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            lu.solve_left_vec(&Vector::zeros(3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            lu.solve_mat(&Matrix::zeros(3, 2)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            lu.solve_left_mat(&Matrix::zeros(2, 3)),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let lu = Lu::factor(&Matrix::identity(4)).unwrap();
        assert!((lu.condition_estimate() - 1.0).abs() < 1e-12);
        assert!((lu.norm_one() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_estimate_tracks_true_kappa_for_diagonal() {
        // diag(1, 1e-6): kappa_1 = 1e6 exactly; Hager recovers it.
        let a = Matrix::diag(&[1.0, 1e-6]);
        let lu = Lu::factor(&a).unwrap();
        let k = lu.condition_estimate();
        assert!((k - 1e6).abs() < 1.0, "kappa estimate {k}");
    }

    #[test]
    fn condition_estimate_is_a_lower_bound_near_singularity() {
        // Nearly dependent rows: true condition number is huge.
        let eps = 1e-10;
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0 + eps]]);
        let lu = Lu::factor(&a).unwrap();
        let k = lu.condition_estimate();
        assert!(k > 1e9, "kappa estimate {k} should explode");

        // A comfortably conditioned matrix stays small.
        let good = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let kg = Lu::factor(&good).unwrap().condition_estimate();
        assert!(kg < 10.0, "kappa estimate {kg} should be modest");
    }

    #[test]
    fn larger_random_like_system() {
        // Deterministic pseudo-random matrix, diagonally dominated so it is
        // comfortably non-singular.
        let n = 25;
        let a = Matrix::from_fn(n, n, |i, j| {
            let h = ((i * 31 + j * 17 + 7) % 97) as f64 / 97.0 - 0.5;
            if i == j {
                h + (n as f64)
            } else {
                h
            }
        });
        let x_true = Vector::from((0..n).map(|i| (i as f64) / 3.0 - 1.0).collect::<Vec<_>>());
        let b = a.mul_vec(&x_true);
        let x = solve(&a, &b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn workspace_factors_and_solves_repeatedly() {
        let mut ws = LuWorkspace::new(3);
        // Unfactored use is a typed error, not junk data.
        assert!(matches!(
            ws.solve_mat_into(&Matrix::identity(3), &mut Matrix::zeros(3, 3)),
            Err(LinalgError::InvalidArgument { .. })
        ));

        let systems = [
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 0.0, 3.0], &[4.0, 1.0, 0.0]]),
            Matrix::from_rows(&[&[5.0, 1.0, 0.0], &[1.0, 5.0, 1.0], &[0.0, 1.0, 5.0]]),
        ];
        let b = Matrix::from_fn(3, 4, |i, j| (i + 2 * j) as f64 - 2.5);
        let bl = Matrix::from_fn(4, 3, |i, j| (2 * i + j) as f64 - 3.5);
        let mut x = Matrix::zeros(3, 4);
        let mut xl = Matrix::zeros(4, 3);
        for a in &systems {
            ws.factor(a).unwrap();
            ws.solve_mat_into(&b, &mut x).unwrap();
            assert!((a * &x).max_abs_diff(&b) < 1e-12);
            ws.solve_left_mat_into(&bl, &mut xl).unwrap();
            assert!((&xl * a).max_abs_diff(&bl) < 1e-12);
        }
    }

    #[test]
    fn workspace_matches_lu_solutions_and_condition() {
        let a = Matrix::from_fn(8, 8, |i, j| {
            let h = ((i * 13 + j * 29 + 3) % 41) as f64 / 41.0 - 0.5;
            if i == j {
                h + 9.0
            } else {
                h
            }
        });
        let lu = Lu::factor(&a).unwrap();
        let mut ws = LuWorkspace::new(8);
        ws.factor(&a).unwrap();

        let b = Matrix::from_fn(8, 8, |i, j| ((i * j) % 7) as f64 - 3.0);
        let mut x = Matrix::zeros(8, 8);
        ws.solve_mat_into(&b, &mut x).unwrap();
        assert!(x.max_abs_diff(&lu.solve_mat(&b).unwrap()) < 1e-12);

        let mut xl = Matrix::zeros(8, 8);
        ws.solve_left_mat_into(&b, &mut xl).unwrap();
        assert!(xl.max_abs_diff(&lu.solve_left_mat(&b).unwrap()) < 1e-12);

        let bv = Vector::from((0..8).map(|i| i as f64 - 3.0).collect::<Vec<_>>());
        let mut xv = Vector::zeros(8);
        ws.solve_vec_into(&bv, &mut xv).unwrap();
        assert!(xv.max_abs_diff(&lu.solve_vec(&bv).unwrap()) < 1e-13);

        let k_ws = ws.condition_estimate();
        let k_lu = lu.condition_estimate();
        assert!((k_ws - k_lu).abs() < 1e-9 * k_lu.max(1.0));
        assert!(ws.bytes() > 0);
    }

    /// Badly row- and column-scaled but intrinsically benign system:
    /// `D₁·Q·D₂` with orthogonal-ish `Q` and scales spanning 1e±8.
    fn wildly_scaled(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            let q = ((i * 37 + j * 11 + 5) % 19) as f64 / 19.0 - 0.5;
            let base = if i == j { q + 2.0 } else { q };
            let r = 10f64.powi((i as i32 % 5) * 4 - 8);
            let c = 10f64.powi(8 - (j as i32 % 5) * 4);
            base * r * c
        })
    }

    #[test]
    fn equilibrated_solves_match_plain_on_benign_systems() {
        // On a well-scaled matrix equilibration must not change answers
        // beyond roundoff, in any solve direction.
        let a = Matrix::from_rows(&[
            &[0.0, 2.0, 1.0],
            &[1.0, 0.0, 3.0],
            &[4.0, 1.0, 0.0],
        ]);
        let b = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64 - 4.0);
        let bv = Vector::from(vec![1.0, -2.0, 0.5]);

        let mut plain = LuWorkspace::new(3);
        let mut eq = LuWorkspace::new(3);
        plain.factor(&a).unwrap();
        eq.factor_with(&a, FactorOptions { equilibrate: true, retain: false })
            .unwrap();
        assert!(eq.is_equilibrated());
        assert!(!plain.is_equilibrated());

        let (mut x1, mut x2) = (Matrix::zeros(3, 3), Matrix::zeros(3, 3));
        plain.solve_mat_into(&b, &mut x1).unwrap();
        eq.solve_mat_into(&b, &mut x2).unwrap();
        assert!(x1.max_abs_diff(&x2) < 1e-12);

        plain.solve_left_mat_into(&b, &mut x1).unwrap();
        eq.solve_left_mat_into(&b, &mut x2).unwrap();
        assert!(x1.max_abs_diff(&x2) < 1e-12);

        let (mut v1, mut v2) = (Vector::zeros(3), Vector::zeros(3));
        plain.solve_vec_into(&bv, &mut v1).unwrap();
        eq.solve_vec_into(&bv, &mut v2).unwrap();
        assert!(v1.max_abs_diff(&v2) < 1e-12);
    }

    #[test]
    fn equilibration_solves_wildly_scaled_systems() {
        let n = 12;
        let a = wildly_scaled(n);
        let x_true = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 / 5.0 - 1.0);
        let b = &a * &x_true;
        let mut ws = LuWorkspace::new(n);
        ws.factor_with(&a, FactorOptions { equilibrate: true, retain: false })
            .unwrap();
        let mut x = Matrix::zeros(n, 2);
        ws.solve_mat_into(&b, &mut x).unwrap();
        // Residual relative to the data scale, not the (huge) solution.
        let back = &a * &x;
        assert!(back.max_abs_diff(&b) <= 1e-8 * b.norm_inf());

        // Left direction on the same factors.
        let xl_true = Matrix::from_fn(2, n, |i, j| (2 * i + j) as f64 / 7.0 - 0.5);
        let bl = &xl_true * &a;
        let mut xl = Matrix::zeros(2, n);
        ws.solve_left_mat_into(&bl, &mut xl).unwrap();
        assert!((&xl * &a).max_abs_diff(&bl) <= 1e-8 * bl.norm_inf());
    }

    #[test]
    fn refined_solve_requires_retained_matrix() {
        let mut ws = LuWorkspace::new(2);
        ws.factor_with(
            &Matrix::identity(2),
            FactorOptions { equilibrate: true, retain: false },
        )
        .unwrap();
        let b = Matrix::identity(2);
        let mut x = Matrix::zeros(2, 2);
        assert!(matches!(
            ws.solve_mat_refined_into(&b, &mut x),
            Err(LinalgError::InvalidArgument { .. })
        ));
    }

    #[test]
    fn refinement_reaches_working_precision_on_scaled_system() {
        let n = 10;
        let a = wildly_scaled(n);
        let x_true = Matrix::from_fn(n, 1, |i, _| (i as f64 + 1.0) / 3.0);
        let b = &a * &x_true;
        let mut ws = LuWorkspace::new(n);
        ws.factor_with(&a, FactorOptions::hardened()).unwrap();
        let mut x = Matrix::zeros(n, 1);
        let stats = ws.solve_mat_refined_into(&b, &mut x).unwrap();
        assert!(
            stats.backward_error <= stats.initial_backward_error,
            "refinement made things worse: {stats:?}"
        );
        assert!(stats.converged, "no convergence: {stats:?}");
        assert!(stats.backward_error <= REFINE_TOL);
    }

    #[test]
    fn left_refinement_certifies_boundary_style_solves() {
        let n = 9;
        let a = wildly_scaled(n);
        let b = Matrix::from_fn(1, n, |_, j| (j as f64) / 4.0 - 1.0);
        let mut ws = LuWorkspace::new(n);
        ws.factor_with(&a, FactorOptions::hardened()).unwrap();
        let mut x = Matrix::zeros(1, n);
        let stats = ws.solve_left_mat_refined_into(&b, &mut x).unwrap();
        assert!(stats.converged, "left refinement stalled: {stats:?}");
    }

    #[test]
    fn workspace_singular_factor_reports_and_stays_unfactored() {
        let mut ws = LuWorkspace::new(2);
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            ws.factor(&singular),
            Err(LinalgError::Singular { .. })
        ));
        assert!(matches!(
            ws.solve_mat_into(&Matrix::identity(2), &mut Matrix::zeros(2, 2)),
            Err(LinalgError::InvalidArgument { .. })
        ));
        // Recovers with a good matrix.
        ws.factor(&Matrix::identity(2)).unwrap();
        let mut x = Matrix::zeros(2, 2);
        ws.solve_mat_into(&Matrix::identity(2), &mut x).unwrap();
        assert!(x.max_abs_diff(&Matrix::identity(2)) < 1e-15);
    }
}

#[cfg(test)]
mod kernel_tests;
