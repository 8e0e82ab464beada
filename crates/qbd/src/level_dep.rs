use performa_linalg::{lu::Lu, spectral, Matrix, Vector};

use crate::qbd::SolveOptions;
use crate::workspace::{self, gemm};
use crate::{Qbd, QbdError, Result};

/// A QBD with finitely many inhomogeneous boundary levels `0..k` and
/// level-independent dynamics from level `k` upward.
///
/// This is the structure needed for the paper's Sect. 2.4 *load-dependent*
/// extension: when fewer than `N` tasks are present, only that many servers
/// can work, so the service blocks of the first `N` levels differ from the
/// homogeneous interior. The stationary law is
///
/// * explicit vectors `π₀ … π_{k−1}` on the boundary, and
/// * a matrix-geometric tail `π_{k+j} = π_k · Rʲ` above it.
///
/// # Example
///
/// A load-dependent M/M/2 queue (one phase, service rate `min(n,2)·μ`)
/// matches the Erlang closed form:
///
/// ```
/// use performa_linalg::Matrix;
/// use performa_qbd::LevelDependentQbd;
///
/// let (lambda, mu) = (1.0, 0.8);
/// let m = |v: f64| Matrix::from_rows(&[&[v]]);
/// let qbd = LevelDependentQbd::new(
///     vec![m(lambda), m(lambda)],                 // up from levels 0, 1
///     vec![m(-lambda), m(-lambda - mu)],          // local at levels 0, 1
///     vec![m(mu)],                                // down from level 1
///     m(lambda),                                  // homogeneous A0
///     m(-lambda - 2.0 * mu),                      // homogeneous A1
///     m(2.0 * mu),                                // homogeneous A2
/// )?;
/// let sol = qbd.solve()?;
/// // M/M/2 with a = λ/μ = 1.25: p0 = (1 + a + a²/(2−a·μ/μ...)) — just
/// // check against the standard Erlang-C derived mean.
/// assert!(sol.mean_queue_length() > 0.0);
/// # Ok::<(), performa_qbd::QbdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LevelDependentQbd {
    /// `up[n]`: level `n → n+1` for `n = 0..k`.
    up: Vec<Matrix>,
    /// `local[n]`: level `n` for `n = 0..k`.
    local: Vec<Matrix>,
    /// `down[n]`: level `n+1 → n` for `n = 0..k−1`
    /// (i.e. `down[0]` maps level 1 to level 0).
    down: Vec<Matrix>,
    a0: Matrix,
    a1: Matrix,
    a2: Matrix,
}

impl LevelDependentQbd {
    /// Creates a validated level-dependent QBD with `k = up.len()`
    /// boundary levels.
    ///
    /// `up` and `local` must have length `k ≥ 1`; `down` must have length
    /// `k − 1`. Level `k` and above use `(a0, a1, a2)`; the down-block from
    /// level `k` into `k−1` is the homogeneous `a2`.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] on shape disagreement or non-vanishing
    /// generator row sums.
    pub fn new(
        up: Vec<Matrix>,
        local: Vec<Matrix>,
        down: Vec<Matrix>,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
    ) -> Result<Self> {
        let k = up.len();
        if k == 0 {
            return Err(QbdError::InvalidBlocks {
                message: "at least one boundary level is required".into(),
            });
        }
        if local.len() != k || down.len() != k - 1 {
            return Err(QbdError::InvalidBlocks {
                message: format!(
                    "expected {k} local blocks and {} down blocks, got {} and {}",
                    k - 1,
                    local.len(),
                    down.len()
                ),
            });
        }
        let m = a1.nrows();
        for (name, blk) in [("A0", &a0), ("A1", &a1), ("A2", &a2)] {
            if blk.shape() != (m, m) {
                return Err(QbdError::InvalidBlocks {
                    message: format!("{name} must be {m}x{m}"),
                });
            }
        }
        for (n, blk) in up.iter().enumerate() {
            if blk.shape() != (m, m) {
                return Err(QbdError::InvalidBlocks {
                    message: format!("up[{n}] must be {m}x{m}"),
                });
            }
        }
        for (n, blk) in local.iter().enumerate() {
            if blk.shape() != (m, m) {
                return Err(QbdError::InvalidBlocks {
                    message: format!("local[{n}] must be {m}x{m}"),
                });
            }
        }
        for (n, blk) in down.iter().enumerate() {
            if blk.shape() != (m, m) {
                return Err(QbdError::InvalidBlocks {
                    message: format!("down[{n}] must be {m}x{m}"),
                });
            }
        }

        // Row-sum checks level by level.
        let scale = a1.max_abs().max(1.0);
        let check = |label: String, sum: Vector| -> Result<()> {
            if sum.norm_inf() > 1e-8 * scale * m as f64 {
                return Err(QbdError::InvalidBlocks {
                    message: format!(
                        "{label} row sums must vanish, worst {:.3e}",
                        sum.norm_inf()
                    ),
                });
            }
            Ok(())
        };
        for n in 0..k {
            let mut row = &local[n] + &up[n];
            if n > 0 {
                row += &down[n - 1];
            }
            check(format!("boundary level {n}"), row.row_sums())?;
        }
        check(
            "homogeneous levels".into(),
            (&(&a0 + &a1) + &a2).row_sums(),
        )?;

        Ok(LevelDependentQbd {
            up,
            local,
            down,
            a0,
            a1,
            a2,
        })
    }

    /// Number of boundary levels `k`.
    pub fn boundary_levels(&self) -> usize {
        self.up.len()
    }

    /// Phase dimension.
    pub fn phase_dim(&self) -> usize {
        self.a1.nrows()
    }

    /// Solves for the stationary distribution.
    ///
    /// # Errors
    ///
    /// [`QbdError::Unstable`] if the homogeneous part has upward drift;
    /// otherwise convergence / linear-algebra failures from the inner
    /// stages.
    pub fn solve(&self) -> Result<LevelDependentSolution> {
        let m = self.phase_dim();
        let k = self.boundary_levels();

        // R from the homogeneous part. Reuse Qbd machinery with dummy
        // boundary blocks (they do not affect G/R).
        let proxy = Qbd::new(
            self.a0.clone(),
            self.a1.clone(),
            self.a2.clone(),
            &self.a1 + &self.a2,
            self.a0.clone(),
            self.a2.clone(),
        )?;
        let (up_rate, down_rate) = proxy.drift()?;
        if up_rate >= down_rate {
            return Err(QbdError::Unstable {
                up_rate,
                down_rate,
            });
        }
        let g = proxy.g_matrix(SolveOptions::default())?;
        let r = proxy.r_from_g(&g)?;

        // geo_eps = (I−R)⁻¹·ε and A1 + R·A2, via the thread workspace
        // (the G solve above has already warmed it at this dimension).
        let (geo_eps, a1_ra2) = workspace::with(m, |ws| {
            ws.t1.copy_from(&r);
            ws.t1.scale_mut(-1.0);
            ws.t1.add_scaled_identity(1.0);
            ws.lu.factor(&ws.t1)?;
            let mut geo_eps = Vector::zeros(m);
            ws.lu.solve_vec_into(&Vector::ones(m), &mut geo_eps)?;
            let mut a1_ra2 = self.a1.clone();
            gemm(1.0, &r, &self.a2, 1.0, &mut a1_ra2);
            Ok::<_, QbdError>((geo_eps, a1_ra2))
        })?;

        // Linear system for x = [π0 … π_k] (k+1 blocks of size m):
        //   level 0:          π0·local[0] + π1·down[0] = 0
        //   level n (1..k−1): π_{n−1}·up[n−1] + π_n·local[n] + π_{n+1}·down[n] = 0
        //   level k:          π_{k−1}·up[k−1] + π_k·(A1 + R·A2) = 0
        //   (down[n] means the block mapping level n+1 → n; for n = k−1
        //    the homogeneous A2 applies)
        // plus normalization Σ_{n<k} π_n·ε + π_k·(I−R)⁻¹·ε = 1.
        let dim = (k + 1) * m;
        let mut sys = Matrix::zeros(dim, dim);
        let put = |sys: &mut Matrix, bi: usize, bj: usize, blk: &Matrix| {
            for i in 0..m {
                for j in 0..m {
                    sys[(bi * m + i, bj * m + j)] += blk[(i, j)];
                }
            }
        };
        for n in 0..=k {
            // Local block (column n, contribution from π_n).
            if n < k {
                put(&mut sys, n, n, &self.local[n]);
            } else {
                put(&mut sys, n, n, &a1_ra2);
            }
            // Up block: π_n up[n] enters balance of level n+1.
            if n < k {
                put(&mut sys, n, n + 1, &self.up[n]);
            }
            // Down block: π_n (n≥1) enters balance of level n−1.
            if n >= 1 {
                let blk = if n < k { &self.down[n - 1] } else { &self.a2 };
                put(&mut sys, n, n - 1, blk);
            }
        }
        // Replace the final column with the normalization coefficients.
        for n in 0..=k {
            for i in 0..m {
                sys[(n * m + i, dim - 1)] = if n < k { 1.0 } else { geo_eps[i] };
            }
        }
        let x = Lu::factor(&sys)?.solve_left_vec(&Vector::basis(dim, dim - 1))?;

        let mut levels = Vec::with_capacity(k + 1);
        for n in 0..=k {
            let mut v = Vector::zeros(m);
            for i in 0..m {
                v[i] = x[n * m + i].max(0.0);
            }
            levels.push(v);
        }
        let pi_k = levels.pop().expect("k+1 blocks assembled");
        Ok(LevelDependentSolution {
            boundary: levels,
            pi_k,
            r,
            geo_eps,
        })
    }
}

/// Stationary law of a [`LevelDependentQbd`].
#[derive(Debug, Clone)]
pub struct LevelDependentSolution {
    /// `π₀ … π_{k−1}`.
    boundary: Vec<Vector>,
    /// `π_k`, root of the geometric tail.
    pi_k: Vector,
    r: Matrix,
    /// Cached `(I−R)⁻¹·ε`.
    geo_eps: Vector,
}

impl LevelDependentSolution {
    /// Number of explicit boundary levels `k`.
    pub fn boundary_levels(&self) -> usize {
        self.boundary.len()
    }

    /// The rate matrix `R` of the homogeneous part.
    pub fn r_matrix(&self) -> &Matrix {
        &self.r
    }

    /// Stationary vector of level `n`.
    pub fn level(&self, n: usize) -> Vector {
        let k = self.boundary.len();
        if n < k {
            self.boundary[n].clone()
        } else {
            spectral::vec_mul_power(&self.pi_k, &self.r, n - k)
        }
    }

    /// Probability of exactly `n` customers.
    pub fn level_probability(&self, n: usize) -> f64 {
        self.level(n).sum()
    }

    /// Tail probability `Pr(Q > q)`.
    pub fn tail_probability(&self, q: usize) -> f64 {
        let k = self.boundary.len();
        // The first level above q; it saturates at usize::MAX, where
        // the tail has underflowed to 0 either way.
        let above = q.saturating_add(1);
        if above >= k {
            // Entirely inside the geometric region.
            spectral::vec_mul_power(&self.pi_k, &self.r, above - k).dot(&self.geo_eps)
        } else {
            // Boundary part beyond q, plus the whole geometric tail.
            let mut p = 0.0;
            for v in &self.boundary[above..] {
                p += v.sum();
            }
            p + self.pi_k.dot(&self.geo_eps)
        }
    }

    /// Mean queue length
    /// `Σ_{n<k} n·π_n·ε + k·π_k(I−R)⁻¹ε + π_k·R(I−R)⁻²ε`.
    pub fn mean_queue_length(&self) -> f64 {
        let k = self.boundary.len();
        let mut mean = 0.0;
        for (n, v) in self.boundary.iter().enumerate() {
            mean += n as f64 * v.sum();
        }
        let m = self.r.nrows();
        let i_minus_r = Matrix::identity(m) - &self.r;
        let lu = Lu::factor(&i_minus_r).expect("stable chain");
        let geo2_eps = lu.solve_vec(&self.geo_eps).expect("dimensions fixed");
        let r_geo2 = self.r.mul_vec(&geo2_eps);
        mean += k as f64 * self.pi_k.dot(&self.geo_eps) + self.pi_k.dot(&r_geo2);
        mean
    }

    /// Total probability mass (should be 1; exposed for diagnostics).
    pub fn total_probability(&self) -> f64 {
        let b: f64 = self.boundary.iter().map(|v| v.sum()).sum();
        b + self.pi_k.dot(&self.geo_eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: f64) -> Matrix {
        Matrix::from_rows(&[&[v]])
    }

    /// Closed-form mean number in system for M/M/c.
    fn mmc_mean(lambda: f64, mu: f64, c: usize) -> f64 {
        let a = lambda / mu;
        let rho = a / c as f64;
        let mut fact = 1.0;
        let mut p0_inv = 0.0;
        for n in 0..c {
            if n > 0 {
                fact *= n as f64;
            }
            p0_inv += a.powi(n as i32) / fact;
        }
        let fact_c = (1..=c).map(|i| i as f64).product::<f64>();
        p0_inv += a.powi(c as i32) / (fact_c * (1.0 - rho));
        let p0 = 1.0 / p0_inv;
        let lq = p0 * a.powi(c as i32) * rho / (fact_c * (1.0 - rho) * (1.0 - rho));
        lq + a
    }

    fn mmc_qbd(lambda: f64, mu: f64, c: usize) -> LevelDependentQbd {
        // Boundary levels 0..c−1 with service rate n·μ; homogeneous with
        // c·μ from level c.
        let mut up = Vec::new();
        let mut local = Vec::new();
        let mut down = Vec::new();
        for n in 0..c {
            up.push(scalar(lambda));
            local.push(scalar(-lambda - n as f64 * mu));
            if n > 0 {
                down.push(scalar(n as f64 * mu));
            }
        }
        LevelDependentQbd::new(
            up,
            local,
            down,
            scalar(lambda),
            scalar(-lambda - c as f64 * mu),
            scalar(c as f64 * mu),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(LevelDependentQbd::new(
            vec![],
            vec![],
            vec![],
            scalar(1.0),
            scalar(-2.0),
            scalar(1.0)
        )
        .is_err());
        // Mismatched counts.
        assert!(LevelDependentQbd::new(
            vec![scalar(1.0)],
            vec![scalar(-1.0), scalar(-1.0)],
            vec![],
            scalar(1.0),
            scalar(-2.0),
            scalar(1.0)
        )
        .is_err());
        // Broken boundary row sum.
        assert!(LevelDependentQbd::new(
            vec![scalar(1.0)],
            vec![scalar(-2.0)],
            vec![],
            scalar(1.0),
            scalar(-2.0),
            scalar(1.0)
        )
        .is_err());
    }

    #[test]
    fn mm2_matches_erlang_formula() {
        for &(lambda, mu) in &[(1.0, 0.8), (1.5, 1.0), (0.4, 0.3)] {
            let qbd = mmc_qbd(lambda, mu, 2);
            let sol = qbd.solve().unwrap();
            let expect = mmc_mean(lambda, mu, 2);
            assert!(
                (sol.mean_queue_length() - expect).abs() < 1e-9 * expect,
                "λ={lambda} μ={mu}: {} vs {expect}",
                sol.mean_queue_length()
            );
            assert!((sol.total_probability() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn mm5_matches_erlang_formula() {
        let qbd = mmc_qbd(3.5, 1.0, 5);
        let sol = qbd.solve().unwrap();
        let expect = mmc_mean(3.5, 1.0, 5);
        assert!((sol.mean_queue_length() - expect).abs() < 1e-8 * expect);
    }

    #[test]
    fn pmf_matches_birth_death_solution() {
        // M/M/2: p_n = p0 aⁿ/n! for n < 2, p_n = p0 a² ρ^{n-2} / 2 for n ≥ 2.
        let (lambda, mu) = (1.2, 1.0);
        let sol = mmc_qbd(lambda, mu, 2).solve().unwrap();
        let a = lambda / mu;
        let rho = a / 2.0;
        let p0 = 1.0 / (1.0 + a + a * a / (2.0 * (1.0 - rho)));
        assert!((sol.level_probability(0) - p0).abs() < 1e-10);
        assert!((sol.level_probability(1) - p0 * a).abs() < 1e-10);
        for n in 2..10 {
            let expect = p0 * a * a / 2.0 * rho.powi(n - 2);
            assert!(
                (sol.level_probability(n as usize) - expect).abs() < 1e-10,
                "n={n}"
            );
        }
    }

    #[test]
    fn tail_consistent_with_pmf() {
        let sol = mmc_qbd(1.2, 1.0, 3).solve().unwrap();
        for q in [0usize, 1, 2, 5, 10] {
            let prefix: f64 = (0..=q).map(|n| sol.level_probability(n)).sum();
            assert!(
                (sol.tail_probability(q) - (1.0 - prefix)).abs() < 1e-10,
                "q={q}"
            );
        }
    }

    #[test]
    fn unstable_rejected() {
        let qbd = mmc_qbd(5.0, 1.0, 2); // ρ = 2.5
        assert!(matches!(qbd.solve(), Err(QbdError::Unstable { .. })));
    }

    #[test]
    fn single_boundary_level_reduces_to_plain_qbd() {
        // k = 1 with matching blocks must agree with Qbd.
        let (lambda, mu) = (0.6, 1.0);
        let ld = LevelDependentQbd::new(
            vec![scalar(lambda)],
            vec![scalar(-lambda)],
            vec![],
            scalar(lambda),
            scalar(-lambda - mu),
            scalar(mu),
        )
        .unwrap();
        let sol = ld.solve().unwrap();
        let rho = lambda / mu;
        assert!((sol.mean_queue_length() - rho / (1.0 - rho)).abs() < 1e-10);
        assert!((sol.level_probability(0) - (1.0 - rho)).abs() < 1e-10);
    }
}
