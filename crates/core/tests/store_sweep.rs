//! Sweep ↔ durable-store integration: resume replays cached points
//! bit-identically, stale records (old solver versions, the tag-1
//! layout that stored `G`) and failures follow the documented
//! semantics, and sharded runs merge back to the unsharded result.
//!
//! Every test that runs a plan holds `performa_obs::test_lock()`: the
//! replay test counts LU factorizations in the process-global metrics
//! registry, which a concurrently running solve would add to.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use performa_core::{
    store_key, Axis, ClusterModel, ClusterSolution, CoreError, PointKey, PointRecord, Scenario,
    StoreHandle, SweepOptions, SweepPlan, SweepResult,
};
use performa_dist::{Exponential, TruncatedPowerTail};
use performa_obs as obs;
use performa_qbd::SolveOptions;
use performa_store::frame::{encode_frame, MAGIC};
use performa_store::{merge, verify, Store};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "performa_core_store_{tag}_{}_{}.log",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&path);
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Small, fast paper-style cluster (exponential repairs keep the phase
/// dimension tiny, so debug-mode solves stay cheap).
fn template() -> ClusterModel {
    ClusterModel::builder()
        .servers(2)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(Exponential::with_mean(10.0).unwrap())
        .utilization(0.5)
        .build()
        .unwrap()
}

/// The paper's cluster with TPT repairs (`α = 1.4`, `θ = 0.2`, mean 10).
fn tpt_template(servers: usize, t: u32) -> ClusterModel {
    ClusterModel::builder()
        .servers(servers)
        .peak_rate(2.0)
        .degradation(0.2)
        .up(Exponential::with_mean(90.0).unwrap())
        .down(TruncatedPowerTail::with_mean(t, 1.4, 0.2, 10.0).unwrap())
        .utilization(0.5)
        .build()
        .unwrap()
}

/// Every metric a figure or the CLI reads off a point, as bits: the
/// mean, the variance (which reads `s₃` and `R`), `Pr(Q ≥ k)` at 10,
/// 100 and 500, the pmf to level 50 (incremental and by matrix power)
/// and the phase marginal.
fn metric_bits(sol: &ClusterSolution) -> Vec<u64> {
    let mut v = vec![sol.mean_queue_length(), sol.queue_length_variance()];
    v.extend([10, 100, 500].map(|k| sol.at_least_probability(k)));
    v.extend(sol.qbd().pmf(51));
    v.push(sol.queue_length_pmf(50));
    v.extend(sol.qbd().marginal_phase().as_slice());
    v.into_iter().map(f64::to_bits).collect()
}

fn all_metric_bits(result: SweepResult<ClusterSolution>) -> Vec<Vec<u64>> {
    result
        .expect_values("stable grid")
        .iter()
        .map(metric_bits)
        .collect()
}

/// Samples of `linalg.lu.factor_s` while `f` runs with metrics on.
fn lu_factorizations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    obs::reset_metrics();
    obs::set_metrics(true);
    let out = f();
    let snap = obs::metrics_snapshot();
    obs::set_metrics(false);
    obs::reset_metrics();
    (
        out,
        snap.histograms
            .get("linalg.lu.factor_s")
            .map_or(0, |h| h.count),
    )
}

fn rho_plan(rhos: Vec<f64>) -> SweepPlan {
    Scenario::new(template(), Axis::Rho(rhos)).compile()
}

fn opts_with_store(path: &Path) -> (SweepOptions, StoreHandle) {
    let (handle, _) = StoreHandle::open(path).unwrap();
    (SweepOptions::default().with_store(handle.clone()), handle)
}

#[test]
fn resume_replays_cached_points_bit_identically() {
    let _guard = obs::test_lock();
    for (servers, t, rhos) in [(2, 10, vec![0.3, 0.95]), (5, 4, vec![0.45])] {
        let scratch = Scratch::new("resume");
        let n = rhos.len() as u64;
        let plan = || Scenario::new(tpt_template(servers, t), Axis::Rho(rhos.clone())).compile();

        // Ground truth: the same plan without any store.
        let baseline = all_metric_bits(plan().run());

        // The writing run solves (and so factorizes) every point.
        let (opts, _handle) = opts_with_store(&scratch.0);
        let writing = plan().with_options(opts);
        let (first, factored) = lu_factorizations(|| writing.run());
        assert!(
            factored > 0,
            "N={servers} T={t}: the solve recorded no LU factorization"
        );
        assert_eq!(first.stats().store_hits, 0);
        assert_eq!(first.stats().store_appends, n);
        assert_eq!(
            all_metric_bits(first),
            baseline,
            "store write path changed results"
        );

        // A freshly opened handle (proves durability) replays every
        // point from its stored parts: no solve and no factorization.
        let (opts, _handle) = opts_with_store(&scratch.0);
        let replay = plan().with_options(opts);
        let (second, factored) = lu_factorizations(|| replay.run());
        assert_eq!(factored, 0, "N={servers} T={t}: the replay factorized");
        assert_eq!(second.stats().store_hits, n);
        assert_eq!(second.stats().store_appends, 0);
        assert_eq!(
            all_metric_bits(second),
            baseline,
            "replay is not bit-identical"
        );
    }
}

/// A solved record in the tag-1 layout of earlier builds: `π₀`, `π₁`,
/// `R` and `G`, no geometric sums.
fn legacy_payload(key: &PointKey, model: &ClusterModel) -> Vec<u8> {
    let sol = model.solve().unwrap();
    let q = sol.qbd();
    let g = model
        .to_qbd()
        .unwrap()
        .g_matrix(SolveOptions::default())
        .unwrap();
    let mut out = vec![1u8];
    out.extend((key.fingerprint.len() as u32).to_le_bytes());
    out.extend(key.fingerprint.as_bytes());
    out.extend(key.solver_version.to_le_bytes());
    out.extend(key.x_bits.to_le_bytes());
    out.extend((q.phase_dim() as u32).to_le_bytes());
    for part in [
        q.pi0().as_slice(),
        q.pi1().as_slice(),
        q.r_matrix().as_slice(),
        g.as_slice(),
    ] {
        for x in part {
            out.extend(x.to_bits().to_le_bytes());
        }
    }
    out
}

#[test]
fn legacy_frames_carrying_g_are_stale_and_re_solve_once() {
    let _guard = obs::test_lock();
    let scratch = Scratch::new("legacy");
    let model = template().with_utilization(0.5).unwrap();
    let key = store_key(&model, 0.5);
    let truth = model.solve().unwrap().mean_queue_length();

    // One whole legacy frame, then a legacy frame torn by a crash.
    let frame = encode_frame(&legacy_payload(&key, &model));
    let torn = frame.len() / 2;
    let log = [&MAGIC[..], &frame, &frame[..torn]].concat();
    std::fs::write(&scratch.0, &log).unwrap();

    // `performa store verify` accepts the log and reports the tail.
    let checked = verify(&scratch.0).unwrap();
    assert_eq!((checked.frames, checked.records, checked.stale), (1, 1, 1));
    assert_eq!(checked.torn_tail_bytes, torn as u64);

    // Open recovers the torn tail and counts the whole frame as stale,
    // in its stats and in the `store.opened` event; nothing is indexed.
    let sink = Arc::new(obs::MemorySink::new());
    let id = obs::add_sink(sink.clone());
    obs::set_level(obs::TraceLevel::Info);
    let opened = Store::open(&scratch.0);
    obs::set_level(obs::TraceLevel::Off);
    obs::remove_sink(id);
    let (store, stats) = opened.unwrap();
    assert!(stats.recovered_truncation);
    assert_eq!(stats.truncated_bytes, torn as u64);
    assert_eq!((stats.frames, stats.records, stats.stale), (1, 0, 1));
    assert!(store.peek(&key).is_none());
    drop(store);
    let event_stale = sink.records().iter().find_map(|r| match r {
        obs::Record::Event {
            name: "store.opened",
            fields,
            ..
        } => fields
            .iter()
            .find(|(k, _)| *k == "stale")
            .map(|(_, v)| v.clone()),
        _ => None,
    });
    assert_eq!(event_stale, Some(obs::Value::U64(1)));
    assert_eq!(
        std::fs::metadata(&scratch.0).unwrap().len(),
        (MAGIC.len() + frame.len()) as u64
    );

    // The sweep does not replay the stale frame: the point re-solves to
    // the store-less bits and appends one compact record.
    let (opts, handle) = opts_with_store(&scratch.0);
    let resolved = rho_plan(vec![0.5])
        .with_options(opts)
        .run_map(|s| s.mean_queue_length());
    assert_eq!(resolved.stats().store_hits, 0);
    assert_eq!(resolved.stats().store_appends, 1);
    assert_eq!(
        resolved.expect_values("re-solve")[0].to_bits(),
        truth.to_bits()
    );
    drop(handle);

    // From then on the compact record shadows the stale frame.
    let (_, stats) = Store::open(&scratch.0).unwrap();
    assert_eq!((stats.frames, stats.records, stats.stale), (2, 1, 1));
    let (opts, _handle) = opts_with_store(&scratch.0);
    let replayed = rho_plan(vec![0.5])
        .with_options(opts)
        .run_map(|s| s.mean_queue_length());
    assert_eq!(replayed.stats().store_hits, 1);
    assert_eq!(replayed.stats().store_appends, 0);
    assert_eq!(
        replayed.expect_values("replay")[0].to_bits(),
        truth.to_bits()
    );
}

#[test]
fn deterministic_model_errors_never_enter_the_store() {
    let _guard = obs::test_lock();
    let scratch = Scratch::new("unstable");
    // ρ = 1.2 is unstable: a typed model-level error, not a solver
    // failure — it must not be persisted.
    let rhos = vec![0.3, 1.2, 0.6];
    let (opts, handle) = opts_with_store(&scratch.0);
    let result = rho_plan(rhos.clone())
        .with_options(opts)
        .run_map(|sol| sol.normalized_mean_queue_length());
    assert_eq!(result.stats().solved, 2);
    assert_eq!(result.stats().failed, 1);
    assert_eq!(result.stats().store_appends, 2);
    assert_eq!(handle.len(), 2);
    assert!(matches!(
        result.points()[1].outcome,
        Err(CoreError::Unstable { .. })
    ));

    // On resume the two solved points replay and the unstable point
    // fails by the same gate again — still nothing new in the log.
    let (opts, _handle) = opts_with_store(&scratch.0);
    let resumed = rho_plan(rhos)
        .with_options(opts)
        .run_map(|sol| sol.mean_queue_length());
    assert_eq!(resumed.stats().store_hits, 2);
    assert_eq!(resumed.stats().store_appends, 0);
    assert!(matches!(
        resumed.points()[1].outcome,
        Err(CoreError::Unstable { .. })
    ));
}

#[test]
fn stale_failure_semantics_version_bump_and_retry_failed() {
    let _guard = obs::test_lock();
    let scratch = Scratch::new("stale");
    let rhos = vec![0.3, 0.6];
    // Hand-plant failure records: for ρ = 0.3 under the *current*
    // solver version, and for ρ = 0.6 under an obsolete version.
    let current = store_key(&template().with_utilization(0.3).unwrap(), 0.3);
    let stale = PointKey {
        solver_version: current.solver_version.wrapping_sub(1),
        ..store_key(&template().with_utilization(0.6).unwrap(), 0.6)
    };
    let failure = PointRecord::Failed {
        kind: "numerical_breakdown".to_string(),
        message: "planted by test".to_string(),
    };
    {
        let (mut store, _) = Store::open(&scratch.0).unwrap();
        store.append(&current, &failure).unwrap();
        store.append(&stale, &failure).unwrap();
        store.flush().unwrap();
    }

    // Default semantics: the current-version failure replays as a
    // typed error; the stale-version record misses and re-solves.
    let (opts, handle) = opts_with_store(&scratch.0);
    let result = rho_plan(rhos.clone())
        .with_options(opts)
        .run_map(|sol| sol.mean_queue_length());
    match &result.points()[0].outcome {
        Err(CoreError::ReplayedFailure { kind, message }) => {
            assert_eq!(kind, "numerical_breakdown");
            assert!(message.contains("planted by test"));
        }
        other => panic!("expected ReplayedFailure, got {other:?}"),
    }
    assert!(result.points()[1].outcome.is_ok());
    assert_eq!(result.stats().store_hits, 1, "stale record must not hit");
    assert_eq!(
        result.stats().store_appends,
        1,
        "re-solved point is persisted"
    );
    drop(handle);

    // `retry_failed` re-attempts the persisted failure; the fresh
    // success then shadows it for all later runs.
    let (mut opts, _handle) = opts_with_store(&scratch.0);
    opts.retry_failed = true;
    let retried = rho_plan(rhos.clone())
        .with_options(opts)
        .run_map(|sol| sol.mean_queue_length());
    assert!(retried.points().iter().all(|p| p.outcome.is_ok()));
    assert_eq!(retried.stats().store_appends, 1);

    let (opts, _handle) = opts_with_store(&scratch.0);
    let replayed = rho_plan(rhos)
        .with_options(opts)
        .run_map(|sol| sol.mean_queue_length());
    assert!(replayed.points().iter().all(|p| p.outcome.is_ok()));
    assert_eq!(replayed.stats().store_hits, 2);
    assert_eq!(replayed.stats().store_appends, 0);
}

#[test]
fn sharded_runs_merge_back_to_the_unsharded_result() {
    let _guard = obs::test_lock();
    let shard_a = Scratch::new("shard_a");
    let shard_b = Scratch::new("shard_b");
    let merged = Scratch::new("shard_merged");
    let rhos = vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let n = rhos.len();

    let baseline = rho_plan(rhos.clone())
        .run_map(|sol| sol.normalized_mean_queue_length())
        .expect_values("unsharded");

    // Shards partition the plan round-robin.
    let plan_a = rho_plan(rhos.clone()).shard(0, 2);
    let plan_b = rho_plan(rhos.clone()).shard(1, 2);
    assert_eq!(plan_a.len() + plan_b.len(), n);
    assert_eq!(plan_a.coordinates(), vec![0.2, 0.4, 0.6, 0.8]);
    assert_eq!(plan_b.coordinates(), vec![0.3, 0.5, 0.7]);

    let (opts_a, _a) = opts_with_store(&shard_a.0);
    let ra = plan_a
        .with_options(opts_a)
        .run_map(|s| s.normalized_mean_queue_length());
    assert_eq!(ra.stats().store_appends, 4);
    let (opts_b, _b) = opts_with_store(&shard_b.0);
    let rb = plan_b
        .with_options(opts_b)
        .run_map(|s| s.normalized_mean_queue_length());
    assert_eq!(rb.stats().store_appends, 3);

    let stats = merge(&[shard_a.0.clone(), shard_b.0.clone()], &merged.0).unwrap();
    assert_eq!(stats.added, n);
    assert_eq!(stats.skipped, 0);

    // The full plan over the merged store replays every point.
    let (opts, _m) = opts_with_store(&merged.0);
    let full = rho_plan(rhos)
        .with_options(opts)
        .run_map(|sol| sol.normalized_mean_queue_length());
    assert_eq!(full.stats().store_hits, n as u64);
    assert_eq!(full.stats().store_appends, 0);
    let vals = full.expect_values("merged run");
    for (a, b) in baseline.iter().zip(&vals) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sharded+merged differs from unsharded"
        );
    }
}

#[test]
fn shard_bounds_are_enforced() {
    let plan = rho_plan(vec![0.2, 0.4]);
    let caught = std::panic::catch_unwind(move || plan.shard(2, 2));
    assert!(caught.is_err());
}
