//! Spectral utilities: matrix powers and spectral-radius estimation.
//!
//! The matrix-geometric tail `π_n = π₁ Rⁿ⁻¹` needs a vector times a
//! power of `R` (`Pr(Q > 500)` needs `π₁R⁵⁰⁰`), which
//! [`vec_mul_power`] forms by vector products without forming the
//! power; [`matrix_power`] stays as its reference. Stability /
//! decay-rate diagnostics use the spectral radius `sp(R)` — the
//! geometric decay rate of the queue-length distribution outside
//! power-law regions.

use crate::gemm::gemm_into;
use crate::{LinalgError, Matrix, Result, Vector};

/// Computes `Aᵏ` by binary exponentiation (`A⁰ = I`).
///
/// The product starts as a copy of the first power the expansion of
/// `k` needs, not as `I` times it: a blocked-GEMM output never depends
/// on the sign of a zero input, so every later product is unchanged.
/// Products ping-pong through one spare buffer.
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn matrix_power(a: &Matrix, k: usize) -> Matrix {
    assert!(a.is_square(), "matrix_power: operand must be square");
    let n = a.nrows();
    if k == 0 {
        return Matrix::identity(n);
    }
    let mut base = a.clone();
    let mut spare = Matrix::zeros(n, n);
    let mut result: Option<Matrix> = None;
    let mut k = k;
    loop {
        if k & 1 == 1 {
            result = Some(match result.take() {
                None => base.clone(),
                Some(r) => {
                    gemm_into(1.0, &r, &base, 0.0, &mut spare);
                    std::mem::replace(&mut spare, r)
                }
            });
        }
        k >>= 1;
        if k == 0 {
            break;
        }
        gemm_into(1.0, &base, &base, 0.0, &mut spare);
        std::mem::swap(&mut base, &mut spare);
    }
    result.expect("k > 0 has a set bit")
}

/// `c` of [`vec_mul_power`]'s split rule, which charges one `m×m`
/// squaring as `⌈m/c⌉` vector–matrix products; fitted to timings of
/// every split at `m = 55…462` (DESIGN.md §5). A constant, so the
/// split, and with it the bits, never depend on the host.
const SQUARING_COST_DIVISOR: usize = 2;

/// Computes `v·Aᵏ` by vector–matrix products, never forming `Aᵏ`.
///
/// The low `j` bits of `k` run the binary method on the vector —
/// `v ← v·A^(2ᵇ)` for each set bit `b < j`, squaring `A` as it goes —
/// and then `⌊k/2ʲ⌋` products with `A^(2ʲ)` finish the chain. `j`
/// depends only on `m` and `k`: it minimises `j·⌈m/2⌉ +
/// popcount(k mod 2ʲ) + ⌊k/2ʲ⌋`, the chain's cost in vector products,
/// over `0 ≤ j ≤ ⌊log₂k⌋`. `j = 0` is the plain recurrence `v·A·A⋯`,
/// `j = ⌊log₂k⌋` the pure binary method; any `k`, `usize::MAX`
/// included, costs at most `⌊log₂k⌋` squarings. Two vectors pass the
/// iterate back and forth, so the products allocate nothing.
///
/// # Panics
///
/// Panics if `a` is not square or `v.len() != a.nrows()`.
pub fn vec_mul_power(v: &Vector, a: &Matrix, k: usize) -> Vector {
    assert!(a.is_square(), "vec_mul_power: operand must be square");
    assert_eq!(
        v.len(),
        a.nrows(),
        "vec_mul_power: vector-matrix shape mismatch"
    );
    let n = a.nrows();
    let mut x = v.clone();
    let mut y = Vector::zeros(n);
    let step = |x: &mut Vector, y: &mut Vector, a: &Matrix| {
        a.vec_mul_into(x, y);
        std::mem::swap(x, y);
    };
    let j = power_split(n, k);
    if j == 0 {
        for _ in 0..k {
            step(&mut x, &mut y, a);
        }
        return x;
    }
    let mut base = a.clone();
    let mut spare = Matrix::zeros(n, n);
    for b in 0..j {
        if (k >> b) & 1 == 1 {
            step(&mut x, &mut y, &base);
        }
        gemm_into(1.0, &base, &base, 0.0, &mut spare);
        std::mem::swap(&mut base, &mut spare);
    }
    for _ in 0..k >> j {
        step(&mut x, &mut y, &base);
    }
    x
}

/// The split `j` of [`vec_mul_power`] for an `n×n` matrix and power
/// `k`: the largest minimiser of `j·⌈n/c⌉ + popcount(k mod 2ʲ) +
/// ⌊k/2ʲ⌋` over `0 ≤ j ≤ ⌊log₂k⌋` (`0` for `k = 0`). A tie goes to
/// the shorter chain of vector products.
fn power_split(n: usize, k: usize) -> u32 {
    let Some(top) = k.checked_ilog2() else {
        return 0;
    };
    let square = n.div_ceil(SQUARING_COST_DIVISOR);
    let cost = |j: u32| {
        let low = k & ((1usize << j) - 1);
        j as usize * square + low.count_ones() as usize + (k >> j)
    };
    (0..=top)
        .rev()
        .min_by_key(|&j| cost(j))
        .expect("the range holds j = 0")
}

/// Options for [`spectral_radius`].
#[derive(Debug, Clone, Copy)]
pub struct PowerIterationOptions {
    /// Maximum iterations before reporting non-convergence.
    pub max_iterations: usize,
    /// Relative tolerance on successive eigenvalue estimates.
    pub tolerance: f64,
}

impl Default for PowerIterationOptions {
    fn default() -> Self {
        PowerIterationOptions {
            max_iterations: 20_000,
            tolerance: 1e-12,
        }
    }
}

/// Estimates the spectral radius of a non-negative square matrix by power
/// iteration with default options.
///
/// For the sub-stochastic matrices arising in QBD theory (the `R` and `G`
/// matrices) the dominant eigenvalue is real and non-negative
/// (Perron–Frobenius), which makes the power iteration reliable.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NoConvergence`] if the iteration stalls (e.g. complex
///   dominant pair on a general matrix).
pub fn spectral_radius(a: &Matrix) -> Result<f64> {
    spectral_radius_with(a, PowerIterationOptions::default())
}

/// Estimates the spectral radius with explicit options. See
/// [`spectral_radius`].
///
/// # Errors
///
/// Same as [`spectral_radius`].
pub fn spectral_radius_with(a: &Matrix, opts: PowerIterationOptions) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.nrows();
    if n == 0 {
        return Ok(0.0);
    }
    // Exact early-outs for the trivial cases.
    if a.max_abs() == 0.0 {
        return Ok(0.0);
    }
    if n == 1 {
        return Ok(a[(0, 0)].abs());
    }

    // Slightly perturbed deterministic start vector to avoid landing in an
    // invariant subspace.
    let mut v = Vector::from(
        (0..n)
            .map(|i| 1.0 + (i as f64 + 1.0) * 1e-3)
            .collect::<Vec<_>>(),
    );
    v.scale_mut(1.0 / v.norm_one());
    let mut lambda = 0.0_f64;
    for it in 0..opts.max_iterations {
        let w = a.mul_vec(&v);
        let norm = w.norm_one();
        if norm == 0.0 {
            // v was annihilated: nilpotent direction; restart from a basis
            // vector not yet tried. For nilpotent matrices the radius is 0.
            return Ok(0.0);
        }
        let new_lambda = norm / v.norm_one();
        let mut w = w;
        w.scale_mut(1.0 / norm);
        let diff = (new_lambda - lambda).abs();
        lambda = new_lambda;
        v = w;
        if diff <= opts.tolerance * lambda.max(1e-300) && it > 2 {
            return Ok(lambda);
        }
    }
    Err(LinalgError::NoConvergence {
        op: "spectral_radius",
        iterations: opts.max_iterations,
        residual: lambda,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_zero_is_identity() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        assert_eq!(matrix_power(&a, 0), Matrix::identity(2));
    }

    #[test]
    fn power_matches_repeated_multiplication() {
        let a = Matrix::from_rows(&[&[0.5, 0.25], &[0.1, 0.3]]);
        let mut manual = Matrix::identity(2);
        for _ in 0..7 {
            manual = &manual * &a;
        }
        assert!(matrix_power(&a, 7).max_abs_diff(&manual) < 1e-15);
    }

    #[test]
    fn power_of_diagonal() {
        let d = Matrix::diag(&[2.0, 3.0]);
        let d5 = matrix_power(&d, 5);
        assert_eq!(d5[(0, 0)], 32.0);
        assert_eq!(d5[(1, 1)], 243.0);
    }

    /// `v·Aᵏ` by the reference route: `Aᵏ` by binary powering, then
    /// one vector product.
    fn reference(v: &Vector, a: &Matrix, k: usize) -> Vector {
        matrix_power(a, k).vec_mul(v)
    }

    fn assert_close(got: &Vector, want: &Vector, what: &str) {
        for (&g, &w) in got.as_slice().iter().zip(want.as_slice()) {
            let err = if w == 0.0 {
                g.abs()
            } else {
                ((g - w) / w).abs()
            };
            assert!(err <= 1e-12, "{what}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn vector_power_matches_matrix_power() {
        let a = Matrix::from_fn(7, 7, |i, j| (1 + (3 * i + 5 * j) % 11) as f64 / 60.0);
        let v = Vector::from((0..7).map(|i| 1.0 / (i + 2) as f64).collect::<Vec<_>>());
        for k in [0, 1, 2, 3, 9, 64, 99, 499, 5000] {
            assert_close(
                &vec_mul_power(&v, &a, k),
                &reference(&v, &a, k),
                &format!("k={k}"),
            );
        }
    }

    #[test]
    fn split_spans_recurrence_to_binary() {
        // m = 66, k = 9: one squaring costs 33 products, so the chain
        // is the plain recurrence.
        assert_eq!(power_split(66, 9), 0);
        // m = 2: a squaring costs one product, so the split is the
        // pure binary method.
        assert_eq!(power_split(2, 499), 499_usize.ilog2());
        assert_eq!(power_split(2, 0), 0);
        for (m, k) in [(66, 9), (2, 499)] {
            let a = Matrix::from_fn(m, m, |i, j| (1 + (i + 2 * j) % 5) as f64 / (4.0 * m as f64));
            let v = Vector::from((0..m).map(|i| (i + 1) as f64).collect::<Vec<_>>());
            assert_close(
                &vec_mul_power(&v, &a, k),
                &reference(&v, &a, k),
                &format!("m={m}"),
            );
        }
    }

    #[test]
    fn any_power_costs_at_most_log2_squarings() {
        for m in [1, 2, 66, 462, 10_000] {
            for k in [2, 3, 499, usize::MAX - 1, usize::MAX] {
                assert!(power_split(m, k) <= k.ilog2(), "m={m} k={k}");
            }
        }
        // A contraction's huge power underflows to exactly zero, after
        // at most 63 squarings.
        let a = Matrix::from_rows(&[&[0.5, 0.25], &[0.1, 0.3]]);
        let v = Vector::from(vec![0.4, 0.6]);
        assert_eq!(vec_mul_power(&v, &a, usize::MAX).as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn radius_of_stochastic_matrix_is_one() {
        let p = Matrix::from_rows(&[&[0.9, 0.1], &[0.4, 0.6]]);
        let r = spectral_radius(&p).unwrap();
        assert!((r - 1.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn radius_of_substochastic_matrix() {
        // Known eigenvalues: diag(0.5, 0.2) => radius 0.5.
        let p = Matrix::diag(&[0.5, 0.2]);
        assert!((spectral_radius(&p).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn radius_of_zero_matrix() {
        assert_eq!(spectral_radius(&Matrix::zeros(3, 3)).unwrap(), 0.0);
    }

    #[test]
    fn radius_of_1x1() {
        let a = Matrix::from_rows(&[&[-0.7]]);
        assert_eq!(spectral_radius(&a).unwrap(), 0.7);
    }

    #[test]
    fn radius_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        assert!((spectral_radius(&a).unwrap() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn rectangular_rejected() {
        assert!(matches!(
            spectral_radius(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
