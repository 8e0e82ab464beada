use performa_qbd::{mm1, QbdSolution};

use crate::model::ClusterModel;
use crate::Result;

/// The exact stationary solution of a [`ClusterModel`], with the paper's
/// performability metrics layered on top of the raw QBD law.
#[derive(Debug, Clone)]
pub struct ClusterSolution {
    model: ClusterModel,
    qbd: QbdSolution,
}

impl ClusterSolution {
    pub(crate) fn new(model: ClusterModel, qbd: QbdSolution) -> Self {
        ClusterSolution { model, qbd }
    }

    /// The model this solution belongs to.
    pub fn model(&self) -> &ClusterModel {
        &self.model
    }

    /// The underlying QBD solution (phase-level detail).
    pub fn qbd(&self) -> &QbdSolution {
        &self.qbd
    }

    /// Mean number of tasks in the system (queued + in service).
    pub fn mean_queue_length(&self) -> f64 {
        self.qbd.mean_queue_length()
    }

    /// Mean queue length normalized by the M/M/1 value `ρ/(1−ρ)` at the
    /// same utilization — the y-axis of the paper's Figures 1, 4 and 5.
    pub fn normalized_mean_queue_length(&self) -> f64 {
        self.mean_queue_length()
            / mm1::mean_queue_length(self.model.utilization())
                .expect("solved model is stable, so utilization < 1")
    }

    /// Variance of the number of tasks in the system.
    pub fn queue_length_variance(&self) -> f64 {
        self.qbd.variance_queue_length()
    }

    /// Probability of exactly `n` tasks in the system.
    pub fn queue_length_pmf(&self, n: usize) -> f64 {
        self.qbd.level_probability(n)
    }

    /// Queue-length pmf for `0..len` (the paper's Figure 2 series).
    pub fn queue_length_pmf_range(&self, len: usize) -> Vec<f64> {
        self.qbd.pmf(len)
    }

    /// Tail probability `Pr(Q > k)`; by PASTA, the probability an arriving
    /// task finds more than `k` tasks present.
    pub fn tail_probability(&self, k: usize) -> f64 {
        self.qbd.tail_probability(k)
    }

    /// `Pr(Q ≥ k)` — the paper's Figures 3 and 6 plot `Pr(Q ≥ 500)`.
    pub fn at_least_probability(&self, k: usize) -> f64 {
        self.qbd.at_least_probability(k)
    }

    /// Approximate probability that a task's system time exceeds `d`,
    /// using the paper's mapping `Pr(S > d) ≈ Pr(Q > d·ν̄)`. A NaN bound
    /// gives NaN.
    pub fn delay_violation_probability(&self, d: f64) -> f64 {
        if d.is_nan() {
            return f64::NAN;
        }
        if d <= 0.0 {
            return 1.0;
        }
        let k = (d * self.model.capacity()).floor() as usize;
        self.qbd.tail_probability(k)
    }

    /// Approximate probability that a task meets the delay bound `d`
    /// (success probability of a task with a QoS deadline); NaN for a
    /// NaN bound.
    pub fn delay_success_probability(&self, d: f64) -> f64 {
        1.0 - self.delay_violation_probability(d)
    }

    /// Asymptotic geometric decay rate of the queue-length distribution
    /// (spectral radius of `R`).
    ///
    /// # Errors
    ///
    /// Propagates the rare power-iteration failure.
    pub fn decay_rate(&self) -> Result<f64> {
        Ok(self.qbd.decay_rate()?)
    }

    /// Probability that the system is empty.
    pub fn empty_probability(&self) -> f64 {
        self.qbd.level_probability(0)
    }

    /// The `p`-quantile of the queue length (smallest `k` with
    /// `Pr(Q ≤ k) ≥ p`), searched up to `max_k`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn queue_length_quantile(&self, p: f64, max_k: usize) -> Option<usize> {
        self.qbd.queue_length_quantile(p, max_k)
    }
}

#[cfg(test)]
mod tests {
    use crate::ClusterModel;
    use performa_dist::{Exponential, TruncatedPowerTail};

    fn tpt_model(t: u32, rho: f64) -> crate::ClusterSolution {
        ClusterModel::builder()
            .servers(2)
            .peak_rate(2.0)
            .degradation(0.2)
            .up(Exponential::with_mean(90.0).unwrap())
            .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
            .utilization(rho)
            .build()
            .unwrap()
            .solve()
            .unwrap()
    }

    #[test]
    fn pmf_and_tail_consistency() {
        let sol = tpt_model(5, 0.4);
        let pmf = sol.queue_length_pmf_range(50);
        let prefix: f64 = pmf.iter().sum();
        assert!((sol.tail_probability(49) - (1.0 - prefix)).abs() < 1e-10);
        assert!((sol.at_least_probability(50) - sol.tail_probability(49)).abs() < 1e-15);
        assert!((sol.empty_probability() - pmf[0]).abs() < 1e-15);
    }

    #[test]
    fn delay_metrics() {
        let sol = tpt_model(5, 0.4);
        assert_eq!(sol.delay_violation_probability(0.0), 1.0);
        let d = 2.0;
        let p = sol.delay_violation_probability(d);
        assert!(p > 0.0 && p < 1.0);
        assert!((sol.delay_success_probability(d) + p - 1.0).abs() < 1e-15);
        // Longer deadlines are easier to meet.
        assert!(sol.delay_violation_probability(4.0) < p);
    }

    #[test]
    fn delay_metrics_at_the_edges_of_the_bound() {
        let sol = tpt_model(5, 0.4);
        // A NaN bound has no queue-length threshold: no answer, not
        // Pr(Q > 0).
        assert!(sol.delay_violation_probability(f64::NAN).is_nan());
        assert!(sol.delay_success_probability(f64::NAN).is_nan());
        // An infinite bound is never violated; its threshold saturates
        // at usize::MAX, which the tail reaches in ⌊log₂k⌋ squarings.
        assert_eq!(sol.delay_violation_probability(f64::INFINITY), 0.0);
        assert_eq!(sol.delay_success_probability(f64::INFINITY), 1.0);
        assert_eq!(sol.delay_violation_probability(-1.0), 1.0);
        assert_eq!(sol.delay_violation_probability(f64::NEG_INFINITY), 1.0);
    }

    #[test]
    fn high_variance_repair_dominates_exponential() {
        // At the same utilization inside the blow-up region, TPT T = 9
        // must beat exponential repair by a wide margin.
        let heavy = tpt_model(9, 0.7);
        let light = tpt_model(1, 0.7);
        assert!(
            heavy.mean_queue_length() > 20.0 * light.mean_queue_length(),
            "heavy {} vs light {}",
            heavy.mean_queue_length(),
            light.mean_queue_length()
        );
    }

    #[test]
    fn variance_explodes_in_blowup_region() {
        // The queue-length variance reacts even more violently than the
        // mean across the blow-up boundary.
        let calm = tpt_model(9, 0.15);
        let wild = tpt_model(9, 0.7);
        assert!(wild.queue_length_variance() > 1e4 * calm.queue_length_variance());
        // Consistency: Var >= 0 and std dev comparable to the huge mean.
        assert!(calm.queue_length_variance() >= 0.0);
    }

    #[test]
    fn quantiles_blow_up_across_the_boundary() {
        // p99 queue length explodes crossing rho_1 while the median barely
        // moves — the tail, not the bulk, carries the damage.
        let calm = tpt_model(9, 0.55);
        let hot = tpt_model(9, 0.65);
        let calm_p50 = calm.queue_length_quantile(0.5, 100_000).unwrap();
        let hot_p50 = hot.queue_length_quantile(0.5, 100_000).unwrap();
        let calm_p99 = calm.queue_length_quantile(0.99, 1_000_000).unwrap();
        let hot_p99 = hot.queue_length_quantile(0.99, 1_000_000).unwrap();
        assert!(hot_p50 <= calm_p50 + 5, "medians: {calm_p50} -> {hot_p50}");
        assert!(
            hot_p99 > 10 * calm_p99.max(1),
            "p99: {calm_p99} -> {hot_p99}"
        );
    }

    #[test]
    fn decay_rate_reflects_congestion() {
        let low = tpt_model(5, 0.2).decay_rate().unwrap();
        let high = tpt_model(5, 0.8).decay_rate().unwrap();
        assert!(low < high);
        assert!(high < 1.0);
    }

    #[test]
    fn normalized_mean_exceeds_one_under_failures() {
        // Failures always hurt relative to M/M/1 at equal utilization.
        for rho in [0.3, 0.5, 0.7] {
            let sol = tpt_model(5, rho);
            assert!(sol.normalized_mean_queue_length() > 1.0, "rho={rho}");
        }
    }
}
