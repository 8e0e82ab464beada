//! Queue-length levels and tails `π·Rᵏ` by vector products
//! (`spectral::vec_mul_power`) against the reference `Rᵏ` by binary
//! powering followed by one vector product, on the paper's lumped
//! N = 2, T = 10 (m = 66) and N = 5, T = 4 (m = 126) models.

use performa::core::{ClusterModel, LoadDependentCluster};
use performa::dist::{Exponential, TruncatedPowerTail};
use performa::linalg::{lu::Lu, spectral, Matrix, Vector};

/// Powers that span both ends of the split rule (plain recurrence at
/// small `k`, mostly binary at large `k`) and a deep tail.
const POWERS: [usize; 9] = [0, 1, 2, 3, 9, 64, 99, 499, 5000];

fn model(servers: usize, t: u32, rho: f64) -> ClusterModel {
    ClusterModel::builder()
        .servers(servers)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(rho)
        .build()
        .unwrap()
}

/// `got` within 1e-12 of `want`, relative; exactly 0 where the
/// reference underflows to 0.
fn assert_close(got: f64, want: f64, what: &str) {
    if want == 0.0 {
        assert_eq!(got, 0.0, "{what}: reference underflows, got {got:e}");
    } else {
        let rel = ((got - want) / want).abs();
        assert!(rel <= 1e-12, "{what}: {got:e} vs {want:e} (rel {rel:e})");
    }
}

fn assert_vec_close(got: &Vector, want: &Vector, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (&g, &w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_close(g, w, &format!("{what}[{i}]"));
    }
}

/// `(I − R)⁻¹·ε`, the weight that turns a level vector into a tail.
fn geometric_weight(r: &Matrix) -> Vector {
    let m = r.nrows();
    let lu = Lu::factor(&(Matrix::identity(m) - r)).unwrap();
    lu.solve_vec(&Vector::ones(m)).unwrap()
}

#[test]
fn qbd_levels_and_tails_match_the_matrix_power_reference() {
    for (servers, t, rho) in [(2, 10, 0.7), (5, 4, 0.5)] {
        let sol = model(servers, t, rho).solve().unwrap();
        let qbd = sol.qbd();
        let (r, pi1) = (qbd.r_matrix(), qbd.pi1());
        let s1 = &qbd.geometric_sums()[0];
        for k in POWERS {
            let what = format!("N={servers} T={t} m={} k={k}", r.nrows());
            let level = spectral::matrix_power(r, k).vec_mul(pi1);
            assert_vec_close(&qbd.level(k + 1), &level, &format!("{what} level"));
            let tail = level.dot_compensated(s1);
            assert_close(qbd.tail_probability(k), tail, &format!("{what} tail"));
            assert_close(
                qbd.at_least_probability(k + 1),
                tail,
                &format!("{what} at-least"),
            );
        }
        if servers == 2 {
            // An unbounded split would run for ever here; the squarings
            // are capped at ⌊log₂k⌋ and the tail has long underflowed.
            assert_eq!(qbd.at_least_probability(usize::MAX), 0.0);
        }
    }
}

#[test]
fn level_dependent_levels_and_tails_match_the_matrix_power_reference() {
    let sol = LoadDependentCluster::new(model(2, 10, 0.7))
        .to_qbd()
        .unwrap()
        .solve()
        .unwrap();
    let b = sol.boundary_levels();
    let r = sol.r_matrix();
    let root = sol.level(b);
    let weight = geometric_weight(r);
    for k in POWERS {
        let what = format!("level-dependent m={} k={k}", r.nrows());
        let level = spectral::matrix_power(r, k).vec_mul(&root);
        assert_vec_close(&sol.level(b + k), &level, &format!("{what} level"));
        let tail = level.dot(&weight);
        // Pr(Q > b + k − 1) = π_b·Rᵏ·(I − R)⁻¹·ε.
        assert_close(
            sol.tail_probability(b + k - 1),
            tail,
            &format!("{what} tail"),
        );
    }
    // The level above usize::MAX saturates instead of wrapping to 0,
    // which read the whole distribution, Pr(Q ≥ 0) ≈ 1.
    assert_eq!(sol.tail_probability(usize::MAX), 0.0);
}
