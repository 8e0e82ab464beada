//! Which kernel lane each classified QBD block runs on, and that the
//! lane never moves a bit.
//!
//! `Qbd` classifies the two blocks that enter its structured products,
//! `A0` and `A2`, as diagonal or dense at construction. The M/MMPP/1
//! queue of the paper has `A0 = λI` and `A2 = diag(ν)`, and its dual
//! MMPP/M/1 queue has `A0 = diag(λ)` and `A2 = μI`, so both run the
//! diagonal kernels at every size. The Discard model's service block
//! `A2 = L + F` also carries the failure transitions, so it is not
//! diagonal and its `R·A2` runs the blocked GEMM; the diagonal and
//! dense lanes give the same bits, which its mean queue length pins.

use performa::core::CrashDiscardCluster;
use performa::qbd::Qbd;
use performa_experiments::{hyp2_cluster, params, tpt_cluster_with};

#[test]
fn paper_blocks_run_on_the_diagonal_lane() {
    // paper_scale's largest classes: N5_T6 (m = 462) and N2_T16 (m = 153).
    for (n, t, rho, m) in [(5, 6, 0.1, 462), (2, 16, 0.35, 153)] {
        let qbd = tpt_cluster_with(n, params::DELTA, t, rho)
            .to_qbd()
            .expect("paper parameters are valid");
        assert_eq!(qbd.phase_dim(), m, "N{n}_T{t}");
        assert_eq!(qbd.kernel_tag(), "a0:diagonal,a2:diagonal", "N{n}_T{t}");
    }

    // The dual queue: the same lumped MMPP as bursty arrivals.
    let arrivals = tpt_cluster_with(2, params::DELTA, 16, 0.35)
        .service_process()
        .expect("paper parameters are valid");
    let mu = 2.0 * arrivals.mean_rate().expect("irreducible");
    let dual = Qbd::mmpp_m1(arrivals.generator(), arrivals.rates(), mu).expect("valid blocks");
    assert_eq!(dual.kernel_tag(), "a0:diagonal,a2:diagonal");
}

#[test]
fn discard_service_block_keeps_its_bits_on_the_dense_lane() {
    // N = 6 crash faults with HYP-2 repair: m = 28, and A2 = L + F is
    // banded. A classifier with a banded lane ran R·A2 on it; the dense
    // lane must reproduce that solve's mean to the printed digit.
    let discard = CrashDiscardCluster::new(hyp2_cluster(6, 0.0, 10, 0.4)).expect("delta = 0");
    let qbd = discard.to_qbd().expect("valid blocks");
    assert_eq!(qbd.phase_dim(), 28);
    assert_eq!(qbd.kernel_tag(), "a0:diagonal,a2:dense");
    let mean = discard.solve().expect("stable").mean_queue_length();
    assert_eq!(format!("{mean:.10e}"), "7.1260398795e-1");
}
