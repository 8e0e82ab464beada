use performa_linalg::{lu::Lu, spectral, Matrix, Vector};

use crate::{QbdError, Result};

/// The stationary solution of a positive-recurrent QBD.
///
/// Holds exactly what the metrics read: the boundary vectors `π₀`,
/// `π₁`, the rate matrix `R`, from which every level obeys
/// `π_n = π₁·Rⁿ⁻¹` (`n ≥ 1`), and the geometric sums
/// `sⱼ = (I − R)⁻ʲ·ε` for `j = 1, 2, 3`, which the boundary solve
/// takes from its own factorization of `I − R`. All the paper's
/// queue-length metrics are derived from this object. Probability-mass
/// sums and inner products (pmf, tails, moments, quantiles) use
/// Neumaier-compensated accumulation — near the blow-up points these
/// series mix magnitudes across many orders, where plain recursive
/// summation loses the tail.
#[derive(Debug, Clone)]
pub struct QbdSolution {
    pi0: Vector,
    pi1: Vector,
    r: Matrix,
    /// `[s₁, s₂, s₃]`, `sⱼ = (I − R)⁻ʲ·ε`.
    sums: [Vector; 3],
}

impl QbdSolution {
    /// Reassembles a solution from its parts — exactly the inverse of
    /// reading [`Self::pi0`], [`Self::pi1`], [`Self::r_matrix`] and
    /// [`Self::geometric_sums`] back out.
    ///
    /// Nothing is recomputed, so a solution rebuilt from bit-exact parts
    /// yields bit-identical metrics. This is what lets the durable
    /// result store replay persisted points byte-for-byte.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidParameter`] when the parts disagree on the
    /// phase dimension.
    pub fn from_parts(pi0: Vector, pi1: Vector, r: Matrix, sums: [Vector; 3]) -> Result<Self> {
        let m = pi0.len();
        if pi1.len() != m || r.shape() != (m, m) || sums.iter().any(|s| s.len() != m) {
            return Err(QbdError::InvalidParameter {
                message: format!("solution parts disagree with π₀'s phase dimension {m}"),
            });
        }
        Ok(QbdSolution { pi0, pi1, r, sums })
    }

    /// Phase dimension `m`.
    pub fn phase_dim(&self) -> usize {
        self.pi0.len()
    }

    /// The rate matrix `R`.
    pub fn r_matrix(&self) -> &Matrix {
        &self.r
    }

    /// The geometric sums `[s₁, s₂, s₃]`, `sⱼ = (I − R)⁻ʲ·ε`: `s₁`
    /// weighs the tails, `s₂` the mean and `s₃` the second moment.
    pub fn geometric_sums(&self) -> &[Vector; 3] {
        &self.sums
    }

    /// Boundary vector `π₀` (empty queue, by phase).
    pub fn pi0(&self) -> &Vector {
        &self.pi0
    }

    /// Boundary vector `π₁`.
    pub fn pi1(&self) -> &Vector {
        &self.pi1
    }

    /// Stationary vector of level `n`: `π₀` or `π₁·Rⁿ⁻¹`.
    pub fn level(&self, n: usize) -> Vector {
        match n {
            0 => self.pi0.clone(),
            1 => self.pi1.clone(),
            _ => spectral::vec_mul_power(&self.pi1, &self.r, n - 1),
        }
    }

    /// Probability of exactly `n` customers: `π_n · ε`.
    pub fn level_probability(&self, n: usize) -> f64 {
        self.level(n).sum_compensated()
    }

    /// Tail probability `Pr(Q > k) = π₁·Rᵏ·(I−R)⁻¹·ε`.
    ///
    /// This is the paper's QoS metric: by PASTA it is the probability an
    /// arriving task finds more than `k` tasks in the system.
    pub fn tail_probability(&self, k: usize) -> f64 {
        spectral::vec_mul_power(&self.pi1, &self.r, k).dot_compensated(&self.sums[0])
    }

    /// Probability that the queue length is at least `k`, `Pr(Q ≥ k)`.
    pub fn at_least_probability(&self, k: usize) -> f64 {
        if k == 0 {
            1.0
        } else {
            self.tail_probability(k - 1)
        }
    }

    /// Mean queue length `E[Q] = π₁·(I−R)⁻²·ε` (tasks in system,
    /// including those in service — the paper's convention).
    pub fn mean_queue_length(&self) -> f64 {
        self.pi1.dot_compensated(&self.sums[1])
    }

    /// Second raw moment `E[Q²] = π₁·(I+R)·(I−R)⁻³·ε`
    /// (from `Σ n²·xⁿ⁻¹ = (1+x)/(1−x)³`).
    pub fn second_moment_queue_length(&self) -> f64 {
        let s3 = &self.sums[2];
        let w = self.r.mul_vec(s3);
        self.pi1.dot_compensated(s3) + self.pi1.dot_compensated(&w)
    }

    /// Variance of the queue length.
    pub fn variance_queue_length(&self) -> f64 {
        let m = self.mean_queue_length();
        (self.second_moment_queue_length() - m * m).max(0.0)
    }


    /// Smallest `k` with `Pr(Q ≤ k) ≥ p` — the `p`-quantile of the
    /// queue-length distribution, computed by walking the incremental pmf.
    ///
    /// Returns `None` if the quantile exceeds `max_k` (guard against
    /// near-saturation searches).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn queue_length_quantile(&self, p: f64, max_k: usize) -> Option<usize> {
        assert!(p > 0.0 && p < 1.0, "quantile level must be in (0, 1)");
        let mut cdf = self.pi0.sum_compensated();
        if cdf >= p {
            return Some(0);
        }
        let mut v = self.pi1.clone();
        let mut next = Vector::zeros(v.len());
        for k in 1..=max_k {
            cdf += v.sum_compensated();
            if cdf >= p {
                return Some(k);
            }
            self.r.vec_mul_into(&v, &mut next);
            std::mem::swap(&mut v, &mut next);
        }
        None
    }

    /// Marginal phase distribution `π₀ + π₁·(I−R)⁻¹` — equals the phase
    /// stationary law `φ`, a useful internal consistency check.
    pub fn marginal_phase(&self) -> Vector {
        let m = self.phase_dim();
        let i_minus_r = Matrix::identity(m) - &self.r;
        let lu = Lu::factor(&i_minus_r).expect("I−R invertible for a stable chain");
        let geo = lu
            .solve_left_vec(&self.pi1)
            .expect("dimension fixed at construction");
        &self.pi0 + &geo
    }

    /// Caudal characteristic: spectral radius of `R`, the asymptotic
    /// geometric decay rate of the queue-length distribution. Values close
    /// to 1 signal heavy congestion.
    ///
    /// # Errors
    ///
    /// Propagates the power-iteration failure (rare; see
    /// [`performa_linalg::spectral::spectral_radius`]).
    pub fn decay_rate(&self) -> Result<f64> {
        Ok(spectral::spectral_radius(&self.r)?)
    }

    /// Queue-length pmf for levels `0..len`, computed incrementally in
    /// `O(len·m²)`.
    pub fn pmf(&self, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        out.push(self.pi0.sum_compensated());
        let mut v = self.pi1.clone();
        let mut next = Vector::zeros(v.len());
        for _ in 1..len {
            out.push(v.sum_compensated());
            self.r.vec_mul_into(&v, &mut next);
            std::mem::swap(&mut v, &mut next);
        }
        out
    }

    /// Tail probabilities `Pr(Q > k)` for `k = 0..len`, computed
    /// incrementally in `O(len·m²)`.
    pub fn tail_probabilities(&self, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        let mut v = self.pi1.clone();
        let mut next = Vector::zeros(v.len());
        for _ in 0..len {
            out.push(v.dot_compensated(&self.sums[0]));
            self.r.vec_mul_into(&v, &mut next);
            std::mem::swap(&mut v, &mut next);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qbd;

    fn solved() -> (Qbd, QbdSolution) {
        let q = Matrix::from_rows(&[&[-0.2, 0.2], &[1.0, -1.0]]);
        let rates = Vector::from(vec![2.0, 0.1]);
        let qbd = Qbd::m_mmpp1(1.0, &q, &rates).unwrap();
        let sol = qbd.solve().unwrap();
        (qbd, sol)
    }

    #[test]
    fn incremental_pmf_matches_direct() {
        let (_, sol) = solved();
        let pmf = sol.pmf(20);
        for (n, &p) in pmf.iter().enumerate() {
            assert!((p - sol.level_probability(n)).abs() < 1e-13, "n={n}");
        }
    }

    #[test]
    fn incremental_tails_match_direct() {
        let (_, sol) = solved();
        let tails = sol.tail_probabilities(30);
        for (k, &t) in tails.iter().enumerate() {
            assert!((t - sol.tail_probability(k)).abs() < 1e-13, "k={k}");
        }
    }

    #[test]
    fn tail_is_complement_of_pmf_prefix() {
        let (_, sol) = solved();
        for k in [0usize, 3, 10] {
            let prefix: f64 = sol.pmf(k + 1).iter().sum();
            assert!((sol.tail_probability(k) - (1.0 - prefix)).abs() < 1e-11);
        }
    }

    #[test]
    fn at_least_probability_shifts_tail() {
        let (_, sol) = solved();
        assert_eq!(sol.at_least_probability(0), 1.0);
        assert!((sol.at_least_probability(5) - sol.tail_probability(4)).abs() < 1e-15);
    }

    #[test]
    fn mean_matches_pmf_sum() {
        let (_, sol) = solved();
        let approx: f64 = sol
            .pmf(2000)
            .iter()
            .enumerate()
            .map(|(n, p)| n as f64 * p)
            .sum();
        assert!(
            (sol.mean_queue_length() - approx).abs() < 1e-8,
            "{} vs {approx}",
            sol.mean_queue_length()
        );
    }

    #[test]
    fn mean_also_equals_tail_sum() {
        // E[Q] = Σ_{k≥0} Pr(Q > k).
        let (_, sol) = solved();
        let approx: f64 = sol.tail_probabilities(2000).iter().sum();
        assert!((sol.mean_queue_length() - approx).abs() < 1e-8);
    }



    #[test]
    fn quantiles_bracket_the_distribution() {
        let (_, sol) = solved();
        let q50 = sol.queue_length_quantile(0.5, 10_000).unwrap();
        let q99 = sol.queue_length_quantile(0.99, 10_000).unwrap();
        assert!(q50 <= q99);
        // CDF at q50 covers half the mass; just below it does not.
        let below: f64 = sol.pmf(q50).iter().sum();
        let at: f64 = sol.pmf(q50 + 1).iter().sum();
        assert!(below < 0.5 && at >= 0.5, "{below} {at}");
        // Out-of-range guard.
        assert_eq!(sol.queue_length_quantile(0.999999999, 3), None);
    }

    #[test]
    fn second_moment_matches_pmf_sum() {
        let (_, sol) = solved();
        let approx: f64 = sol
            .pmf(3000)
            .iter()
            .enumerate()
            .map(|(n, p)| (n * n) as f64 * p)
            .sum();
        assert!(
            (sol.second_moment_queue_length() - approx).abs() < 1e-7 * approx.max(1.0),
            "{} vs {approx}",
            sol.second_moment_queue_length()
        );
        assert!(sol.variance_queue_length() > 0.0);
    }

    #[test]
    fn decay_rate_below_one() {
        let (_, sol) = solved();
        let eta = sol.decay_rate().unwrap();
        assert!(eta > 0.0 && eta < 1.0, "eta = {eta}");
        // Tail ratio converges to eta.
        let t = sol.tail_probabilities(400);
        let ratio = t[399] / t[398];
        assert!((ratio - eta).abs() < 1e-6, "ratio {ratio} vs eta {eta}");
    }

    #[test]
    fn from_parts_replays_bit_identically() {
        let (_, sol) = solved();
        let rebuilt = QbdSolution::from_parts(
            sol.pi0().clone(),
            sol.pi1().clone(),
            sol.r_matrix().clone(),
            sol.geometric_sums().clone(),
        )
        .unwrap();
        assert_eq!(
            sol.mean_queue_length().to_bits(),
            rebuilt.mean_queue_length().to_bits()
        );
        assert_eq!(
            sol.second_moment_queue_length().to_bits(),
            rebuilt.second_moment_queue_length().to_bits()
        );
        for k in [0usize, 1, 5, 40] {
            assert_eq!(
                sol.tail_probability(k).to_bits(),
                rebuilt.tail_probability(k).to_bits(),
                "k={k}"
            );
        }
    }

    #[test]
    fn vector_products_match_the_matrix_power_reference() {
        let (_, sol) = solved();
        let (r, pi1, s1) = (sol.r_matrix(), sol.pi1(), &sol.geometric_sums()[0]);
        // Within 1e-12 relative; exactly 0 where the reference underflows.
        let close = |got: f64, want: f64| {
            if want == 0.0 {
                got == 0.0
            } else {
                ((got - want) / want).abs() <= 1e-12
            }
        };
        for k in [0usize, 1, 2, 3, 9, 64, 99, 499, 5000] {
            let want = spectral::matrix_power(r, k).vec_mul(pi1);
            let level = sol.level(k + 1);
            for (&g, &w) in level.as_slice().iter().zip(want.as_slice()) {
                assert!(close(g, w), "k={k}: level {g:e} vs {w:e}");
            }
            let tail = want.dot_compensated(s1);
            assert!(
                close(sol.tail_probability(k), tail),
                "k={k}: tail vs {tail:e}"
            );
            assert!(close(sol.at_least_probability(k + 1), tail), "k={k}");
        }
        // At most ⌊log₂k⌋ squarings, so this returns at once.
        assert_eq!(sol.at_least_probability(usize::MAX), 0.0);
        assert_eq!(sol.tail_probability(usize::MAX), 0.0);
    }

    #[test]
    fn levels_follow_matrix_geometry() {
        let (_, sol) = solved();
        let l3 = sol.level(3);
        let manual = sol
            .r_matrix()
            .vec_mul(&sol.r_matrix().vec_mul(sol.pi1()));
        assert!(l3.max_abs_diff(&manual) < 1e-14);
    }
}
