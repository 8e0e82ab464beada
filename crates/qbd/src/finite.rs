use performa_linalg::{lu::Lu, ClassifiedMatrix, Matrix, Vector};

use crate::workspace::{self, gemm_right};
use crate::{QbdError, Result};

/// A finite-buffer QBD: levels `0..=capacity`, homogeneous interior blocks
/// and a reflecting top level where up-transitions are suppressed
/// (arrivals to a full buffer are lost).
///
/// This implements the paper's Sect. 2.4 "finite task queue at the
/// dispatcher" extension (ME/MMPP/1/K), solved exactly by backward block
/// elimination (`π_{n+1} = π_n·R_{n+1}` with level-dependent `R_n`), in
/// `O(K·m³)` time.
///
/// # Example
///
/// ```
/// use performa_linalg::Matrix;
/// use performa_qbd::FiniteQbd;
///
/// // M/M/1/3: λ = 1, μ = 2.
/// let m = |v: f64| Matrix::from_rows(&[&[v]]);
/// let q = FiniteQbd::new(m(1.0), m(-3.0), m(2.0), m(-1.0), 3)?;
/// let sol = q.solve()?;
/// // Blocking probability = π_3 = ρ³(1−ρ)/(1−ρ⁴) with ρ = 0.5.
/// let expect = 0.125 * 0.5 / (1.0 - 0.0625);
/// assert!((sol.blocking_probability() - expect).abs() < 1e-12);
/// # Ok::<(), performa_qbd::QbdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FiniteQbd {
    a0: Matrix,
    a1: Matrix,
    /// Classified at construction: the backward sweep right-multiplies by
    /// `A2` once per level, so the diagonal kernel pays off at every
    /// level of a deep buffer.
    a2: ClassifiedMatrix,
    b00: Matrix,
    capacity: usize,
}

impl FiniteQbd {
    /// Creates a validated finite QBD with buffer `capacity ≥ 1` (the queue
    /// holds `0..=capacity` customers).
    ///
    /// The top-level local block is `A1 + A0` (up-rates folded back onto
    /// the diagonal), which keeps generator rows summing to zero.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] on shape or row-sum violations.
    pub fn new(
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
        b00: Matrix,
        capacity: usize,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(QbdError::InvalidBlocks {
                message: "capacity must be at least 1".into(),
            });
        }
        let m = a1.nrows();
        for (name, blk) in [("A0", &a0), ("A1", &a1), ("A2", &a2), ("B00", &b00)] {
            if blk.shape() != (m, m) {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{name} must be {m}x{m}"),
                });
            }
        }
        let scale = a1.max_abs().max(1.0);
        let interior = (&(&a0 + &a1) + &a2).row_sums();
        let boundary = (&b00 + &a0).row_sums();
        for (label, sums) in [("interior", interior), ("boundary", boundary)] {
            if sums.norm_inf() > 1e-8 * scale * m as f64 {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{label} row sums must vanish, worst {:.3e}", sums.norm_inf()),
                });
            }
        }
        Ok(FiniteQbd {
            a0,
            a1,
            a2: ClassifiedMatrix::classify(a2),
            b00,
            capacity,
        })
    }

    /// Buffer capacity `K`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Phase dimension.
    pub fn phase_dim(&self) -> usize {
        self.a1.nrows()
    }

    /// Solves the finite chain exactly.
    ///
    /// Backward sweep builds `R_n` with `π_n = π_{n−1}·R_n`; the level-0
    /// balance `π₀·(B00 + R₁·A2) = 0` then yields `π₀` as a null vector,
    /// and a forward sweep plus normalization finishes.
    ///
    /// # Errors
    ///
    /// [`QbdError::Linalg`] if an elimination step is singular (cannot
    /// happen for a valid irreducible chain).
    pub fn solve(&self) -> Result<FiniteSolution> {
        let m = self.phase_dim();
        let k = self.capacity;

        // R_n for n = K down to 1: π_n = π_{n−1} R_n with
        //   R_K = A0·(−(A1 + A0))⁻¹
        //   R_n = A0·(−(A1 + R_{n+1}·A2))⁻¹   for n < K.
        //
        // The backward sweep performs K factorizations and left solves of
        // the same dimension — exactly the access pattern the thread
        // workspace arena exists for, so after the first pass the loop
        // allocates nothing beyond the stored `rs` blocks.
        let mut rs: Vec<Matrix> = vec![Matrix::zeros(m, m); k + 1];
        let mut sys = workspace::with(m, |ws| {
            ws.t1.copy_from(&self.a1);
            ws.t1.add_scaled_mut(&self.a0, 1.0);
            ws.t1.scale_mut(-1.0);
            ws.lu.factor(&ws.t1)?;
            ws.lu.solve_left_mat_into(&self.a0, &mut rs[k])?;
            for n in (1..k).rev() {
                // t1 ← −(A1 + R_{n+1}·A2).
                let (lower, upper) = rs.split_at_mut(n + 1);
                ws.t1.copy_from(&self.a1);
                gemm_right(1.0, &upper[0], &self.a2, 1.0, &mut ws.t1);
                ws.t1.scale_mut(-1.0);
                ws.lu.factor(&ws.t1)?;
                ws.lu.solve_left_mat_into(&self.a0, &mut lower[n])?;
            }
            // π0 from π0·(B00 + R1·A2) = 0: replace the last column with
            // ones and solve x·M' = e_last (null left-vector trick).
            let mut sys = self.b00.clone();
            gemm_right(1.0, &rs[1], &self.a2, 1.0, &mut sys);
            Ok::<_, QbdError>(sys)
        })?;
        for i in 0..m {
            sys[(i, m - 1)] = 1.0;
        }
        let pi0 = Lu::factor(&sys)?.solve_left_vec(&Vector::basis(m, m - 1))?;

        let mut levels: Vec<Vector> = Vec::with_capacity(k + 1);
        levels.push(pi0);
        for n in 1..=k {
            let next = rs[n].vec_mul(&levels[n - 1]);
            levels.push(next);
        }
        // Normalize the whole law.
        let total: f64 = levels.iter().map(|v| v.sum()).sum();
        for v in &mut levels {
            for x in v.as_mut_slice() {
                *x = (*x / total).max(0.0);
            }
        }
        Ok(FiniteSolution { levels })
    }
}

/// Stationary law of a [`FiniteQbd`].
#[derive(Debug, Clone)]
pub struct FiniteSolution {
    levels: Vec<Vector>,
}

impl FiniteSolution {
    /// Buffer capacity `K`.
    pub fn capacity(&self) -> usize {
        self.levels.len() - 1
    }

    /// Stationary vector of level `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > capacity`.
    pub fn level(&self, n: usize) -> &Vector {
        &self.levels[n]
    }

    /// Probability of exactly `n` customers.
    pub fn level_probability(&self, n: usize) -> f64 {
        if n < self.levels.len() {
            self.levels[n].sum()
        } else {
            0.0
        }
    }

    /// Mean number in system.
    pub fn mean_queue_length(&self) -> f64 {
        self.levels
            .iter()
            .enumerate()
            .map(|(n, v)| n as f64 * v.sum())
            .sum()
    }

    /// Tail probability `Pr(Q > q)`.
    pub fn tail_probability(&self, q: usize) -> f64 {
        self.levels
            .iter()
            .skip(q + 1)
            .map(|v| v.sum())
            .sum()
    }

    /// Probability that the buffer is full. Under Poisson arrivals (PASTA)
    /// this is the task loss probability.
    pub fn blocking_probability(&self) -> f64 {
        self.levels.last().expect("capacity >= 1").sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Matrix {
        Matrix::from_rows(&[&[v]])
    }

    fn mm1k(lambda: f64, mu: f64, k: usize) -> FiniteQbd {
        FiniteQbd::new(
            scalar(lambda),
            scalar(-lambda - mu),
            scalar(mu),
            scalar(-lambda),
            k,
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(FiniteQbd::new(scalar(1.0), scalar(-2.0), scalar(1.0), scalar(-1.0), 0).is_err());
        assert!(FiniteQbd::new(
            Matrix::zeros(2, 2),
            scalar(-2.0),
            scalar(1.0),
            scalar(-1.0),
            3
        )
        .is_err());
        assert!(FiniteQbd::new(scalar(1.0), scalar(-3.0), scalar(1.0), scalar(-1.0), 3).is_err());
    }

    #[test]
    fn mm1k_matches_closed_form() {
        // π_n = ρⁿ(1−ρ)/(1−ρ^{K+1}).
        for &(lambda, mu, k) in &[(1.0, 2.0, 3usize), (0.9, 1.0, 10), (2.0, 1.0, 5)] {
            let rho: f64 = lambda / mu;
            let sol = mm1k(lambda, mu, k).solve().unwrap();
            let z = (1.0 - rho.powi(k as i32 + 1)) / (1.0 - rho);
            for n in 0..=k {
                let expect = rho.powi(n as i32) / z;
                assert!(
                    (sol.level_probability(n) - expect).abs() < 1e-12,
                    "λ={lambda} μ={mu} K={k} n={n}"
                );
            }
        }
    }

    #[test]
    fn oversaturated_buffer_concentrates_at_top() {
        // ρ = 2: most mass near the top of the buffer.
        let sol = mm1k(2.0, 1.0, 8).solve().unwrap();
        assert!(sol.blocking_probability() > 0.5);
        assert!(sol.level_probability(8) > sol.level_probability(0));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let sol = mm1k(0.7, 1.0, 20).solve().unwrap();
        let total: f64 = (0..=20).map(|n| sol.level_probability(n)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(sol.level_probability(21), 0.0);
    }

    #[test]
    fn tail_and_mean_consistent() {
        let sol = mm1k(0.8, 1.0, 15).solve().unwrap();
        // E[Q] = Σ Pr(Q > q).
        let tail_sum: f64 = (0..15).map(|q| sol.tail_probability(q)).sum();
        assert!((sol.mean_queue_length() - tail_sum).abs() < 1e-12);
        assert_eq!(sol.tail_probability(15), 0.0);
        assert_eq!(sol.capacity(), 15);
    }

    #[test]
    fn two_phase_finite_queue() {
        // MMPP service with a failing server; check mass conservation and
        // monotone blocking growth with load.
        let q = Matrix::from_rows(&[&[-0.1, 0.1], &[1.0, -1.0]]);
        let rates = [2.0, 0.0];
        let build = |lambda: f64| {
            let li = Matrix::identity(2) * lambda;
            let l = Matrix::diag(&rates);
            FiniteQbd::new(
                li.clone(),
                &q - &li - &l,
                l,
                &q - &li,
                30,
            )
            .unwrap()
        };
        let mut prev = 0.0;
        for &lambda in &[0.5, 1.0, 1.5] {
            let sol = build(lambda).solve().unwrap();
            let total: f64 = (0..=30).map(|n| sol.level_probability(n)).sum();
            assert!((total - 1.0).abs() < 1e-10);
            let b = sol.blocking_probability();
            assert!(b > prev, "blocking must grow with load");
            prev = b;
        }
    }

    #[test]
    fn large_buffer_approaches_infinite_queue() {
        // For ρ < 1 and K large, the finite solution converges to M/M/1.
        let sol = mm1k(0.5, 1.0, 60).solve().unwrap();
        for n in 0..10 {
            let expect = 0.5f64.powi(n) * 0.5;
            assert!(
                (sol.level_probability(n as usize) - expect).abs() < 1e-10,
                "n={n}"
            );
        }
    }
}
