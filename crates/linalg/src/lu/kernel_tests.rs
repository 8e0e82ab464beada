//! Bit-identity of the substitution kernels against the loops they
//! replaced.
//!
//! The column-panel right solve and the lane-batched left solve promise
//! every output element exactly the operation sequence of the plain
//! row-at-a-time loops. Those loops survive here, verbatim, as oracles;
//! every comparison is on `to_bits`, so a changed signed zero or NaN
//! payload fails as loudly as a changed last digit.

use proptest::prelude::*;

use super::*;

/// The row-at-a-time right solve: one `axpy` over the whole row per
/// nonzero factor entry, then a reciprocal scaling.
fn substitute_rows_oracle(lu: &Matrix, data: &mut [f64], w: usize) {
    let n = lu.nrows();
    // Forward: L y = P b.
    for i in 1..n {
        let (above, current) = data.split_at_mut(i * w);
        let xi = &mut current[..w];
        let lrow = lu.row(i);
        for (j, xj) in above.chunks_exact(w).enumerate() {
            let lij = lrow[j];
            if lij != 0.0 {
                for (x, &y) in xi.iter_mut().zip(xj) {
                    *x -= lij * y;
                }
            }
        }
    }
    // Backward: U x = y.
    for i in (0..n).rev() {
        let (head, tail) = data.split_at_mut((i + 1) * w);
        let xi = &mut head[i * w..];
        let urow = lu.row(i);
        for (j, xj) in tail.chunks_exact(w).enumerate() {
            let uij = urow[i + 1 + j];
            if uij != 0.0 {
                for (x, &y) in xi.iter_mut().zip(xj) {
                    *x -= uij * y;
                }
            }
        }
        let inv = 1.0 / urow[i];
        for x in xi.iter_mut() {
            *x *= inv;
        }
    }
}

/// The one-row left solve on the transposed factors.
#[allow(clippy::too_many_arguments)] // the oracle keeps its original signature
fn solve_left_row_oracle(
    lut: &Matrix,
    perm: &[usize],
    row_scale: &[f64],
    col_scale: &[f64],
    equilibrated: bool,
    b: &[f64],
    x: &mut [f64],
    y: &mut [f64],
) {
    let n = lut.nrows();
    for i in 0..n {
        let row = lut.row(i);
        let mut acc = if equilibrated {
            b[i] * col_scale[i]
        } else {
            b[i]
        };
        for (&u, &yj) in row[..i].iter().zip(y[..i].iter()) {
            acc -= u * yj;
        }
        y[i] = acc / row[i];
    }
    for i in (0..n).rev() {
        let row = lut.row(i);
        let mut acc = y[i];
        for (&l, &zj) in row[i + 1..].iter().zip(y[i + 1..].iter()) {
            acc -= l * zj;
        }
        y[i] = acc;
    }
    if equilibrated {
        for (i, &p) in perm.iter().enumerate() {
            x[p] = y[i] * row_scale[p];
        }
    } else {
        for (i, &p) in perm.iter().enumerate() {
            x[p] = y[i];
        }
    }
}

/// The strided left solve [`Lu`] ran on its untransposed factors.
fn solve_left_vec_oracle(lu: &Matrix, perm: &[usize], b: &[f64], y: &mut [f64], x: &mut [f64]) {
    let n = lu.nrows();
    for i in 0..n {
        let mut acc = b[i];
        for (j, yj) in y[..i].iter().enumerate() {
            acc -= lu[(j, i)] * yj;
        }
        y[i] = acc / lu[(i, i)];
    }
    for i in (0..n).rev() {
        let mut acc = y[i];
        for j in (i + 1)..n {
            acc -= lu[(j, i)] * y[j];
        }
        y[i] = acc;
    }
    for (i, &p) in perm.iter().enumerate() {
        x[p] = y[i];
    }
}

/// `A·X = B` on a workspace's factors the way `solve_mat_into` ran it
/// before the panel kernel: permute and row-scale, substitute, then
/// column-scale.
fn right_oracle(ws: &LuWorkspace, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(b.nrows(), b.ncols());
    for (i, &p) in ws.perm.iter().enumerate() {
        out.row_mut(i).copy_from_slice(b.row(p));
        if ws.equilibrated {
            let r = ws.row_scale[p];
            for v in out.row_mut(i).iter_mut() {
                *v *= r;
            }
        }
    }
    let w = out.ncols();
    substitute_rows_oracle(&ws.lu, out.as_mut_slice(), w);
    if ws.equilibrated {
        for (i, &c) in ws.col_scale.iter().enumerate() {
            for v in out.row_mut(i).iter_mut() {
                *v *= c;
            }
        }
    }
    out
}

/// `X·A = B` on a workspace's factors, one row at a time.
fn left_oracle(ws: &LuWorkspace, b: &Matrix) -> Matrix {
    let n = ws.dim();
    let mut out = Matrix::zeros(b.nrows(), n);
    let mut y = vec![0.0; n];
    for r in 0..b.nrows() {
        solve_left_row_oracle(
            &ws.lut,
            &ws.perm,
            &ws.row_scale,
            &ws.col_scale,
            ws.equilibrated,
            b.row(r),
            out.row_mut(r),
            &mut y,
        );
    }
    out
}

fn assert_bits(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape");
    for (k, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {k} differs: {x:e} vs {y:e}"
        );
    }
}

/// Right-hand-side widths around the panel edges plus two paper-scale
/// phase dimensions.
const WIDTHS: [usize; 7] = [1, PANEL - 1, PANEL, PANEL + 1, 2 * PANEL + 3, 126, 153];

/// A nonsingular `n × n` system whose factors carry exact zero
/// multipliers and a `-0.0`.
///
/// `pattern` 0 is dense, 1 banded (`|i − j| ≤ 2`, zeros outside the
/// band survive elimination as zero multipliers), 2 sparse. A scaled
/// permutation (`shift ≠ 0`) dominates, so partial pivoting must swap
/// rows; row scales spanning `1e±6` give equilibration real work.
fn system(n: usize, pattern: usize, shift: usize, vals: &[f64]) -> Matrix {
    let shift = if pattern == 1 { 0 } else { shift % n.max(1) };
    let mut a = Matrix::from_fn(n, n, |i, j| {
        let keep = match pattern {
            0 => true,
            1 => i.abs_diff(j) <= 2,
            _ => (i * 7 + j * 3) % 5 < 2,
        };
        let mut v = if keep {
            vals[(i * n + j) % vals.len()] - 0.5
        } else {
            0.0
        };
        if j == (i + shift) % n {
            v += n as f64 + 1.0;
        }
        v * 10f64.powi((i % 3) as i32 * 6 - 6)
    });
    if n > 1 {
        // A negative zero below the pivots, where it becomes a (skipped)
        // zero multiplier unless fill-in overwrites it.
        let j = (n - 1 + shift) % n;
        if j != 0 {
            a[(n - 1, 0)] = -0.0;
        }
    }
    a
}

/// A right-hand side with negative zeros sprinkled in.
fn rhs(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        if (i + 2 * j) % 7 == 3 {
            -0.0
        } else {
            vals[(i * 3 + j * 5 + 1) % vals.len()] - 0.5
        }
    })
}

fn check_workspace(n: usize, a: &Matrix, vals: &[f64]) {
    for equilibrate in [false, true] {
        let mut ws = LuWorkspace::new(n);
        ws.factor_with(
            a,
            FactorOptions {
                equilibrate,
                retain: false,
            },
        )
        .expect("nonsingular by construction");
        for &w in &WIDTHS {
            let b = rhs(n, w, vals);
            let want = right_oracle(&ws, &b);
            for workers in [1, 2, 4] {
                let mut got = Matrix::zeros(n, w);
                ws.solve_mat_into_threaded(&b, &mut got, workers).unwrap();
                assert_bits(
                    &format!("right n={n} w={w} eq={equilibrate} @{workers}"),
                    &got,
                    &want,
                );
            }
        }
        for rows in (1..=LANES + 1).chain([2 * LANES + 3, 4 * LANES]) {
            let b = rhs(rows, n, vals);
            let want = left_oracle(&ws, &b);
            for workers in [1, 2, 4] {
                let mut got = Matrix::zeros(rows, n);
                ws.solve_left_mat_into_threaded(&b, &mut got, workers)
                    .unwrap();
                assert_bits(
                    &format!("left n={n} rows={rows} eq={equilibrate} @{workers}"),
                    &got,
                    &want,
                );
            }
        }
    }
}

fn check_lu(n: usize, a: &Matrix, vals: &[f64]) {
    let lu = Lu::factor(a).expect("nonsingular by construction");
    for &w in &WIDTHS {
        let b = rhs(n, w, vals);
        let mut want = Matrix::zeros(n, w);
        for (i, &p) in lu.perm.iter().enumerate() {
            want.row_mut(i).copy_from_slice(b.row(p));
        }
        substitute_rows_oracle(&lu.lu, want.as_mut_slice(), w);
        assert_bits(
            &format!("Lu right n={n} w={w}"),
            &lu.solve_mat(&b).unwrap(),
            &want,
        );
    }
    // P·I, substituted.
    let mut inv = Matrix::from_fn(n, n, |i, j| if lu.perm[i] == j { 1.0 } else { 0.0 });
    substitute_rows_oracle(&lu.lu, inv.as_mut_slice(), n);
    assert_bits(&format!("Lu inverse n={n}"), &lu.inverse().unwrap(), &inv);

    let mut y = vec![0.0; n];
    for rows in 1..=LANES + 1 {
        let b = rhs(rows, n, vals);
        let mut want = Matrix::zeros(rows, n);
        for r in 0..rows {
            solve_left_vec_oracle(&lu.lu, &lu.perm, b.row(r), &mut y, want.row_mut(r));
        }
        assert_bits(
            &format!("Lu left n={n} rows={rows}"),
            &lu.solve_left_mat(&b).unwrap(),
            &want,
        );
        let v = lu.solve_left_vec(&Vector::from(b.row(0).to_vec())).unwrap();
        assert_bits(
            &format!("Lu left vec n={n}"),
            &Matrix::from_fn(1, n, |_, j| v[j]),
            &Matrix::from_fn(1, n, |_, j| want[(0, j)]),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Panel and lane kernels match the old loops bit for bit on
    /// dense, banded and sparse systems, plain and equilibrated, at
    /// 1/2/4 workers.
    #[test]
    fn kernels_match_row_at_a_time_loops(
        n in 1usize..40,
        pattern in 0usize..3,
        shift in 0usize..40,
        vals in prop::collection::vec(0.0f64..1.0, 97),
    ) {
        let a = system(n, pattern, shift, &vals);
        check_workspace(n, &a, &vals);
        check_lu(n, &a, &vals);
    }
}

/// Paper-scale square systems: the logred and `R` shapes (`n = w`).
#[test]
fn kernels_match_row_at_a_time_loops_at_paper_scale() {
    let vals: Vec<f64> = (0..211)
        .map(|k| ((k * 37 + 11) % 211) as f64 / 211.0)
        .collect();
    for n in [126, 153] {
        for pattern in 0..3 {
            let a = system(n, pattern, 5, &vals);
            let mut ws = LuWorkspace::new(n);
            ws.factor(&a).unwrap();
            let b = rhs(n, n, &vals);
            let want = right_oracle(&ws, &b);
            let want_l = left_oracle(&ws, &b);
            for workers in [1, 2, 4] {
                let mut got = Matrix::zeros(n, n);
                ws.solve_mat_into_threaded(&b, &mut got, workers).unwrap();
                assert_bits(&format!("right n={n} p={pattern} @{workers}"), &got, &want);
                ws.solve_left_mat_into_threaded(&b, &mut got, workers)
                    .unwrap();
                assert_bits(&format!("left n={n} p={pattern} @{workers}"), &got, &want_l);
            }
        }
    }
}

/// The factors the tests build really do carry the zero multipliers
/// and negative zeros whose skip (or non-skip) the kernels must
/// reproduce.
#[test]
fn test_systems_exercise_zero_multipliers_and_negative_zero() {
    let vals: Vec<f64> = (0..97).map(|k| k as f64 / 97.0).collect();
    for pattern in [1, 2] {
        let lu = Lu::factor(&system(24, pattern, 5, &vals)).unwrap();
        let zeros = (1..24)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .filter(|&(i, j)| lu.lu[(i, j)] == 0.0)
            .count();
        assert!(zeros > 0, "pattern {pattern}: no zero multipliers");
    }
    let banded = Lu::factor(&system(24, 1, 0, &vals)).unwrap();
    assert!(
        (0..24).any(|i| (0..24).any(|j| banded.lu[(i, j)].to_bits() == (-0.0f64).to_bits())),
        "no negative zero reached the factors"
    );
}

/// With a diagonal `A` every multiplier is an exact zero, so a `-0.0`
/// right-hand side survives only through the skip: without it,
/// `-0.0 − 0·(−1)` would round to `+0.0`.
#[test]
fn zero_skip_keeps_negative_zero() {
    let a = Matrix::diag(&[2.0, 3.0, 4.0]);
    let b = Matrix::from_fn(3, PANEL + 1, |i, j| {
        if i == 0 {
            -1.0
        } else if j % 2 == 0 {
            -0.0
        } else {
            1.5
        }
    });
    let mut ws = LuWorkspace::new(3);
    ws.factor(&a).unwrap();
    let want = right_oracle(&ws, &b);
    assert_eq!(want[(1, 0)].to_bits(), (-0.0f64).to_bits());
    for workers in [1, 2] {
        let mut got = Matrix::zeros(3, PANEL + 1);
        ws.solve_mat_into_threaded(&b, &mut got, workers).unwrap();
        assert_bits(&format!("diagonal @{workers}"), &got, &want);
    }
}
