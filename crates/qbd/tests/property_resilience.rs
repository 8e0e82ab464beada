//! Property-based coverage of the resilient solver pipeline.
//!
//! * On random **stable** QBDs logarithmic reduction agrees with two
//!   independent linear iterations — functional iteration and Neuts'
//!   substitution, kept here as test-only references — and the solve
//!   ladder's report keeps its residual promise.
//! * On random **unstable** inputs every public solve entry returns a
//!   typed error — never a panic.

use proptest::prelude::*;

use performa_linalg::{lu::Lu, Matrix, Vector};
use performa_qbd::{mg1, mm1, Qbd, QbdError, SolveOptions, SolverSupervisor};

/// True iff every entry of `g` is finite (no NaN/Inf leaked out).
fn all_entries_finite(g: &Matrix) -> bool {
    (0..g.nrows()).all(|i| (0..g.ncols()).all(|j| g[(i, j)].is_finite()))
}

/// Iterates `next` from `G = 0` until successive iterates differ by
/// less than `tolerance`; `None` on a non-finite iterate, a singular
/// system or an exhausted budget.
fn fixed_point(
    m: usize,
    tolerance: f64,
    max_iterations: usize,
    next: impl Fn(&Matrix) -> Option<Matrix>,
) -> Option<Matrix> {
    let mut g = Matrix::zeros(m, m);
    for _ in 0..max_iterations {
        let g_next = next(&g)?;
        if !all_entries_finite(&g_next) {
            return None;
        }
        let diff = g_next.max_abs_diff(&g);
        g = g_next;
        if diff < tolerance {
            return Some(g);
        }
    }
    None
}

/// Reference `G` by plain functional iteration
/// `G ← (−A1)⁻¹(A2 + A0·G²)`, linearly convergent.
fn g_functional(qbd: &Qbd, tolerance: f64, max_iterations: usize) -> Option<Matrix> {
    let neg_a1 = Lu::factor(&(qbd.a1() * -1.0)).ok()?;
    fixed_point(qbd.phase_dim(), tolerance, max_iterations, |g| {
        neg_a1.solve_mat(&(qbd.a2() + &(qbd.a0() * &(g * g)))).ok()
    })
}

/// Reference `G` by Neuts' successive substitution
/// `G ← (−(A1 + A0·G))⁻¹·A2`, the classical matrix-analytic iteration.
fn g_neuts(qbd: &Qbd, tolerance: f64, max_iterations: usize) -> Option<Matrix> {
    fixed_point(qbd.phase_dim(), tolerance, max_iterations, |g| {
        let u = (qbd.a1() + &(qbd.a0() * g)) * -1.0;
        Lu::factor(&u).ok()?.solve_mat(qbd.a2()).ok()
    })
}

/// Builds a random irreducible MMPP `⟨Q, L⟩` with `n` phases from the
/// raw proptest draws: off-diagonal rates from `qs`, service rates from
/// `ls`.
fn random_mmpp(n: usize, qs: &[f64], ls: &[f64]) -> (Matrix, Vector) {
    let mut q = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else {
            0.05 + qs[(i * n + j) % qs.len()]
        }
    });
    for i in 0..n {
        let off: f64 = q.row(i).iter().sum();
        q[(i, i)] = -off;
    }
    let rates = Vector::from((0..n).map(|i| ls[i % ls.len()]).collect::<Vec<_>>());
    (q, rates)
}

/// Residual acceptance scale used by the supervisor: the QBD blocks'
/// combined ∞-norm, floored at one.
fn residual_scale(qbd: &Qbd) -> f64 {
    (qbd.a0().norm_inf() + qbd.a1().norm_inf() + qbd.a2().norm_inf()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn logred_agrees_with_functional_and_neuts_references(
        n in 2usize..5,
        qs in prop::collection::vec(0.0f64..2.0, 16),
        ls in prop::collection::vec(0.5f64..4.0, 4),
        frac in 0.1f64..0.85,
    ) {
        let (q, rates) = random_mmpp(n, &qs, &ls);
        let min_rate = (0..n).map(|i| rates[i]).fold(f64::INFINITY, f64::min);
        let lambda = frac * min_rate;
        let qbd = Qbd::m_mmpp1(lambda, &q, &rates).unwrap();
        prop_assume!(qbd.is_stable().unwrap());

        let g_log = qbd.g_matrix(SolveOptions::default()).unwrap();
        let g_fun = g_functional(&qbd, 1e-13, 500_000).unwrap();
        let g_neu = g_neuts(&qbd, 1e-13, 500_000).unwrap();
        prop_assert!(g_log.max_abs_diff(&g_fun) < 1e-8,
            "logred vs functional differ by {}", g_log.max_abs_diff(&g_fun));
        prop_assert!(g_log.max_abs_diff(&g_neu) < 1e-8,
            "logred vs neuts differ by {}", g_log.max_abs_diff(&g_neu));
    }

    #[test]
    fn supervisor_report_keeps_its_residual_promise(
        n in 2usize..5,
        qs in prop::collection::vec(0.0f64..2.0, 16),
        ls in prop::collection::vec(0.5f64..4.0, 4),
        frac in 0.1f64..0.85,
    ) {
        let (q, rates) = random_mmpp(n, &qs, &ls);
        let min_rate = (0..n).map(|i| rates[i]).fold(f64::INFINITY, f64::min);
        let qbd = Qbd::m_mmpp1(frac * min_rate, &q, &rates).unwrap();
        prop_assume!(qbd.is_stable().unwrap());
        let scale = residual_scale(&qbd);

        let (sol, report) = SolverSupervisor::new(qbd).solve().unwrap();
        prop_assert!(report.residual <= report.tolerance_used * scale,
            "residual {} above promised {}", report.residual, report.tolerance_used * scale);
        prop_assert!(report.tolerance_used >= report.tolerance_requested);
        if !report.degraded {
            prop_assert_eq!(report.tolerance_used, report.tolerance_requested);
        }
        // The accepted solution itself is a proper distribution.
        let total: f64 = (0..50).map(|k| sol.level_probability(k)).sum();
        prop_assert!(total > 0.99 && total <= 1.0 + 1e-9, "mass {total}");
    }

    #[test]
    fn unstable_qbds_error_rather_than_panic(
        n in 2usize..5,
        qs in prop::collection::vec(0.0f64..2.0, 16),
        ls in prop::collection::vec(0.5f64..4.0, 4),
        excess in 1.0f64..3.0,
    ) {
        let (q, rates) = random_mmpp(n, &qs, &ls);
        let max_rate = (0..n).map(|i| rates[i]).fold(0.0f64, f64::max);
        let qbd = Qbd::m_mmpp1(excess * max_rate, &q, &rates).unwrap();
        prop_assume!(!qbd.is_stable().unwrap());

        prop_assert!(qbd.solve().is_err());
        prop_assert!(SolverSupervisor::new(qbd).solve().is_err());
    }

    /// On unstable inputs logarithmic reduction — hardened or not —
    /// either returns a typed error or a fully finite matrix; the
    /// shift-hardened stage specifically refuses up-front with
    /// `Unstable` (the shift is only valid for recurrent chains).
    #[test]
    fn hardened_logred_rejects_unstable_inputs_with_a_typed_error(
        n in 2usize..5,
        qs in prop::collection::vec(0.0f64..2.0, 16),
        ls in prop::collection::vec(0.5f64..4.0, 4),
        excess in 1.0f64..3.0,
    ) {
        let (q, rates) = random_mmpp(n, &qs, &ls);
        let max_rate = (0..n).map(|i| rates[i]).fold(0.0f64, f64::max);
        let qbd = Qbd::m_mmpp1(excess * max_rate, &q, &rates).unwrap();
        prop_assume!(!qbd.is_stable().unwrap());

        match qbd.g_matrix(SolveOptions::hardened()) {
            Err(QbdError::Unstable { .. }) => {}
            Err(e) => prop_assert!(
                matches!(e, QbdError::NumericalBreakdown { .. } | QbdError::NoConvergence { .. }),
                "unexpected error kind {e}"
            ),
            Ok(g) => prop_assert!(false, "shift gate let an unstable chain through \
                (finite = {})", all_entries_finite(&g)),
        }
        // Unhardened, logred may legitimately converge to the minimal
        // (sub-stochastic) G of the transient chain — but must never
        // leak NaN/Inf out of an `Ok` return.
        if let Ok(g) = qbd.g_matrix(SolveOptions::default()) {
            prop_assert!(all_entries_finite(&g), "non-finite entries in returned G");
        }
    }

    /// On stable inputs the shifted (hardened) solves must agree with the
    /// plain ones: the shift is an acceleration, not an approximation.
    #[test]
    fn shifted_and_plain_g_agree_on_stable_inputs(
        n in 2usize..5,
        qs in prop::collection::vec(0.0f64..2.0, 16),
        ls in prop::collection::vec(0.5f64..4.0, 4),
        frac in 0.1f64..0.85,
    ) {
        let (q, rates) = random_mmpp(n, &qs, &ls);
        let min_rate = (0..n).map(|i| rates[i]).fold(f64::INFINITY, f64::min);
        let qbd = Qbd::m_mmpp1(frac * min_rate, &q, &rates).unwrap();
        prop_assume!(qbd.is_stable().unwrap());

        let plain = qbd.g_matrix(SolveOptions::default()).unwrap();
        let hard = qbd.g_matrix(SolveOptions::hardened()).unwrap();
        prop_assert!(all_entries_finite(&hard));
        prop_assert!(plain.max_abs_diff(&hard) < 1e-10,
            "shifted logred diverges from plain by {}", plain.max_abs_diff(&hard));
    }

    #[test]
    fn saturated_closed_forms_error_rather_than_panic(
        rho in 1.0f64..5.0,
        scv in 0.0f64..20.0,
    ) {
        prop_assert!(mm1::mean_queue_length(rho).is_err());
        prop_assert!(mm1::level_probability(rho, 3).is_err());
        prop_assert!(mg1::mean_queue_length(rho, scv).is_err());
        // And NaN poisoning is rejected, not propagated.
        prop_assert!(mm1::mean_queue_length(f64::NAN).is_err());
        prop_assert!(mg1::mean_queue_length(f64::NAN, scv).is_err());
    }
}
