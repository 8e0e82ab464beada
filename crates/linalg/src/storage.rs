//! Build-time classification of QBD blocks and the multiply kernels it
//! selects.
//!
//! In the reproduced paper's queues the repeating blocks that enter
//! products are diagonal: Poisson arrivals make `A0 = λI` and modulated
//! service makes `A2 = diag(ν)` in the M/MMPP/1 queue (the MMPP/M/1 dual
//! swaps the two), while `A1` carries the whole modulator generator. [`ClassifiedMatrix::classify`] keeps the dense block and
//! records whether every off-diagonal entry is zero; [`gemm_left_into`]
//! and [`gemm_right_into`] then run a diagonal kernel, which skips the
//! products with off-diagonal zeros, or the blocked GEMM
//! ([`crate::gemm::gemm_into`]) for any other block.
//!
//! # Bit-exactness contract
//!
//! For finite inputs the diagonal kernels are **bitwise identical** to
//! the dense blocked GEMM, which is what lets `Qbd` swap kernels without
//! perturbing golden outputs or the solver version. The argument (pinned
//! by property tests, spelled out in DESIGN.md §16):
//!
//! * dense GEMM updates every output element once per [`KC`] depth
//!   panel, in ascending panel order: `c ← c + α·acc_p`, where `acc_p`
//!   is an ascending-`k` FMA chain over the panel started at `+0.0`;
//! * off-diagonal entries are `±0.0`, and an FMA chain over products
//!   with a zero operand keeps the accumulator at exactly `+0.0`
//!   (`+0.0 + ±0.0 = +0.0` in round-to-nearest), so the chain prefix
//!   before the diagonal term contributes nothing, the kernels may start
//!   the chain at `+0.0` on that term, and a panel without it
//!   contributes `α·(+0.0)`;
//! * once the accumulator is nonzero, adding `±0.0` terms cannot change
//!   it, so the chain suffix after the diagonal term is a no-op — except
//!   when that term is itself a signed zero, in which case the kernels
//!   replay the suffix FMAs on the dense entries (rare, data-dependent,
//!   `O(KC)`).
//!
//! Non-finite operands (`NaN`/`±∞`) void the contract — a dense chain
//! would propagate `0·∞ = NaN` from off the diagonal — but `Qbd`
//! construction rejects non-finite blocks, and a diverging iterate fails
//! its residual gate regardless of which kernel produced it.

use crate::gemm::{self, KC};
use crate::Matrix;

/// A block with its dense storage and whether it is diagonal, which
/// selects the multiply kernel.
///
/// The dense storage is the only storage, so accessors and factorizations
/// see exactly the matrix that was classified; the classification changes
/// only *how fast* products are computed, never their bits (see the
/// module docs for the exactness argument).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedMatrix {
    dense: Matrix,
    diagonal: bool,
}

impl ClassifiedMatrix {
    /// Keeps `m`, recording whether it is square with every off-diagonal
    /// entry `±0.0`.
    pub fn classify(m: Matrix) -> Self {
        let diagonal = m.nrows() == m.ncols()
            && (0..m.nrows()).all(|i| {
                m.row(i)
                    .iter()
                    .enumerate()
                    .all(|(j, &v)| i == j || v == 0.0)
            });
        ClassifiedMatrix { dense: m, diagonal }
    }

    /// The dense storage.
    pub fn dense(&self) -> &Matrix {
        &self.dense
    }

    /// The kernel lane products with this operand run on, `"diagonal"`
    /// or `"dense"`: the name kernel tags and obs counters use.
    pub fn kernel_name(&self) -> &'static str {
        if self.diagonal {
            "diagonal"
        } else {
            "dense"
        }
    }
}

/// `C ← α·S·B + β·C` where `S` is classified.
///
/// Runs the diagonal kernel when `S` is diagonal and the blocked GEMM
/// otherwise; the results are bitwise identical either way (finite
/// inputs).
///
/// # Panics
///
/// Panics if the shapes disagree (`S: m×k`, `B: k×n`, `C: m×n`).
pub fn gemm_left_into(alpha: f64, s: &ClassifiedMatrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    if s.diagonal {
        diagonal_left(alpha, &s.dense, b, beta, c);
    } else {
        gemm::gemm_into(alpha, &s.dense, b, beta, c);
    }
}

/// `C ← α·A·S + β·C` where `S` is classified.
///
/// Right-operand counterpart of [`gemm_left_into`]; same exactness
/// contract.
///
/// # Panics
///
/// Panics if the shapes disagree (`A: m×k`, `S: k×n`, `C: m×n`).
pub fn gemm_right_into(alpha: f64, a: &Matrix, s: &ClassifiedMatrix, beta: f64, c: &mut Matrix) {
    if s.diagonal {
        diagonal_right(alpha, a, &s.dense, beta, c);
    } else {
        gemm::gemm_into(alpha, a, &s.dense, beta, c);
    }
}

/// Shape checks, `β` pass and trivial-case handling of an `(m×k)·(k×n)`
/// product, mirroring [`crate::gemm::gemm_into`] exactly. Returns `true`
/// when the multiply itself can be skipped.
fn prologue(
    alpha: f64,
    (m, k): (usize, usize),
    (kb, n): (usize, usize),
    beta: f64,
    c: &mut Matrix,
) -> bool {
    assert_eq!(k, kb, "shape mismatch in gemm: {m}x{k} * {kb}x{n}");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm output is {}x{}, expected {m}x{n}",
        c.nrows(),
        c.ncols()
    );
    if beta == 0.0 {
        c.as_mut_slice().fill(0.0);
    } else if beta != 1.0 {
        c.scale_mut(beta);
    }
    m == 0 || n == 0 || k == 0 || alpha == 0.0
}

/// Diagonal left multiply `C ← α·S·B + β·C`: row `i` of `S` holds its
/// one possibly nonzero entry at column `i`. Replays the dense
/// per-element panel chain: one `c += α·acc` update per [`KC`] panel in
/// ascending panel order.
fn diagonal_left(alpha: f64, s: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    let k_dim = s.ncols();
    if prologue(alpha, s.shape(), b.shape(), beta, c) {
        return;
    }
    // `c += α·(+0.0)`, the contribution of a panel without the diagonal
    // term. Only observable when the output element is a signed zero,
    // but applied unconditionally to keep those bits identical.
    let zero_add = alpha * 0.0;
    for i in 0..s.nrows() {
        let srow = s.row(i);
        for pc in (0..k_dim).step_by(KC) {
            let p_end = (pc + KC).min(k_dim);
            let crow = c.row_mut(i);
            if !(pc..p_end).contains(&i) {
                for v in crow.iter_mut() {
                    *v += zero_add;
                }
                continue;
            }
            for (j, (v, &bv)) in crow.iter_mut().zip(b.row(i)).enumerate() {
                let mut acc = srow[i].mul_add(bv, 0.0);
                if acc == 0.0 {
                    // Signed-zero accumulator: replay the suffix of the
                    // dense chain so the zero's sign evolves identically.
                    for k in i + 1..p_end {
                        acc = srow[k].mul_add(b[(k, j)], acc);
                    }
                }
                *v += alpha * acc;
            }
        }
    }
}

/// Diagonal right multiply `C ← α·A·S + β·C`: column `j` of `S` holds
/// its one possibly nonzero entry at row `j`. Same panel-chain replay as
/// [`diagonal_left`].
fn diagonal_right(alpha: f64, a: &Matrix, s: &Matrix, beta: f64, c: &mut Matrix) {
    let k_dim = a.ncols();
    if prologue(alpha, a.shape(), s.shape(), beta, c) {
        return;
    }
    let zero_add = alpha * 0.0;
    for i in 0..a.nrows() {
        let arow = a.row(i);
        for pc in (0..k_dim).step_by(KC) {
            let p_end = (pc + KC).min(k_dim);
            for (j, v) in c.row_mut(i).iter_mut().enumerate() {
                if !(pc..p_end).contains(&j) {
                    *v += zero_add;
                    continue;
                }
                let mut acc = arow[j].mul_add(s[(j, j)], 0.0);
                if acc == 0.0 {
                    for k in j + 1..p_end {
                        acc = arow[k].mul_add(s[(k, j)], acc);
                    }
                }
                *v += alpha * acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_into;

    fn probe(nrows: usize, ncols: usize, seed: usize) -> Matrix {
        Matrix::from_fn(nrows, ncols, |i, j| {
            ((i * 29 + j * 23 + seed * 11) % 97) as f64 / 97.0 - 0.5
        })
    }

    fn banded_probe(n: usize, kl: usize, ku: usize, seed: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if j + kl >= i && j <= i + ku {
                ((i * 37 + j * 13 + seed * 7) % 89) as f64 / 89.0 + 0.01
            } else {
                0.0
            }
        })
    }

    #[test]
    fn classification_picks_expected_kinds() {
        let n = 24;
        let diag = Matrix::from_fn(n, n, |i, j| if i == j { i as f64 + 0.5 } else { 0.0 });
        assert_eq!(ClassifiedMatrix::classify(diag).kernel_name(), "diagonal");
        // A negative zero off the diagonal is still a zero.
        let signed = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { -0.0 });
        assert_eq!(ClassifiedMatrix::classify(signed).kernel_name(), "diagonal");
        // Any other structure runs the blocked GEMM, a narrow band too.
        let band = banded_probe(n, 1, 2, 1);
        assert_eq!(ClassifiedMatrix::classify(band).kernel_name(), "dense");
        let dense = probe(n, n, 2);
        assert_eq!(ClassifiedMatrix::classify(dense).kernel_name(), "dense");
        let wide = Matrix::from_fn(n, n + 1, |i, j| if i == j { 1.0 } else { 0.0 });
        assert_eq!(ClassifiedMatrix::classify(wide).kernel_name(), "dense");
    }

    fn assert_bitwise_eq(lhs: &Matrix, rhs: &Matrix, what: &str) {
        for (i, (x, y)) in lhs.as_slice().iter().zip(rhs.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn structured_kernels_match_dense_gemm_bitwise() {
        // Sizes straddling the KC panel boundary so multi-panel chains
        // (including panels without the diagonal term) are exercised.
        for &n in &[13usize, 40, KC + 7] {
            let s = ClassifiedMatrix::classify(Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    (i % 5) as f64 * 0.3
                } else {
                    0.0
                }
            }));
            assert_eq!(s.kernel_name(), "diagonal", "probe must find structure");
            let b = probe(n, n, 7);
            for &(alpha, beta) in &[(1.0, 0.0), (1.0, 1.0), (-0.5, 0.25)] {
                let c0 = probe(n, n, 8);
                let mut want = c0.clone();
                gemm_into(alpha, s.dense(), &b, beta, &mut want);
                let mut left = c0.clone();
                gemm_left_into(alpha, &s, &b, beta, &mut left);
                assert_bitwise_eq(&left, &want, "left");
                let mut want_r = c0.clone();
                gemm_into(alpha, &b, s.dense(), beta, &mut want_r);
                let mut right = c0.clone();
                gemm_right_into(alpha, &b, &s, beta, &mut right);
                assert_bitwise_eq(&right, &want_r, "right");
            }
        }
    }

    #[test]
    fn signed_zero_corners_match_dense_gemm_bitwise() {
        // Zero diagonal entries, negative-zero data in B, and a
        // negative-zero output seed: the cases where the suffix-replay
        // logic is what keeps the kernels exact. The second case has
        // negative zeros off the diagonal and diagonal products that
        // underflow to -0.0, so the replay must read the dense entries.
        let n = 9;
        let zero_diagonal = Matrix::from_fn(n, n, |i, j| {
            if i == j && i % 2 == 0 {
                0.0
            } else if i == j {
                -1.5
            } else {
                0.0
            }
        });
        let zero_data = Matrix::from_fn(n, n, |i, j| match (i + j) % 4 {
            0 => -0.0,
            1 => 0.0,
            2 => -((i + 1) as f64) * 0.1,
            _ => (j as f64) * 0.2,
        });
        let tiny_diagonal = Matrix::from_fn(n, n, |i, j| if i == j { 1e-200 } else { -0.0 });
        let underflowing = Matrix::from_fn(n, n, |i, j| match (i + j) % 3 {
            0 => -1e-200,
            1 => 0.5,
            _ => -0.0,
        });
        let c0 = Matrix::from_fn(n, n, |i, j| if (i + j) % 3 == 0 { -0.0 } else { 0.0 });
        for (s, b) in [(zero_diagonal, zero_data), (tiny_diagonal, underflowing)] {
            let s = ClassifiedMatrix::classify(s);
            assert_eq!(s.kernel_name(), "diagonal");
            for &alpha in &[1.0, -1.0] {
                let mut want = c0.clone();
                gemm_into(alpha, s.dense(), &b, 1.0, &mut want);
                let mut got = c0.clone();
                gemm_left_into(alpha, &s, &b, 1.0, &mut got);
                assert_bitwise_eq(&got, &want, "left signed-zero");
                let mut want_r = c0.clone();
                gemm_into(alpha, &b, s.dense(), 1.0, &mut want_r);
                let mut got_r = c0.clone();
                gemm_right_into(alpha, &b, &s, 1.0, &mut got_r);
                assert_bitwise_eq(&got_r, &want_r, "right signed-zero");
            }
        }
    }

    #[test]
    fn dense_fallback_preserved_for_unstructured_operands() {
        let n = 21;
        let b = probe(n, n, 10);
        for s in [probe(n, n, 9), banded_probe(n, 2, 0, 5)] {
            let s = ClassifiedMatrix::classify(s);
            assert_eq!(s.kernel_name(), "dense");
            let mut want = Matrix::zeros(n, n);
            gemm_into(1.0, s.dense(), &b, 0.0, &mut want);
            let mut got = Matrix::zeros(n, n);
            gemm_left_into(1.0, &s, &b, 0.0, &mut got);
            assert_bitwise_eq(&got, &want, "dense fallback");
        }
    }
}
