//! Store-level fault injection: only compiled with the
//! `fault-injection` feature. Each injected failure must surface as a
//! typed error at the append/flush boundary, and the next open must
//! recover to exactly the records that were fully appended.
#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use performa_store::fault::{arm, FaultPlan};
use performa_store::{PointKey, PointRecord, Store, StoreError};

static NEXT: AtomicU64 = AtomicU64::new(0);

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "performa_store_fault_{tag}_{}_{}.log",
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

fn key(i: u64) -> PointKey {
    PointKey {
        fingerprint: format!("fault-model-{i}"),
        solver_version: 1,
        x_bits: (0.2 + i as f64 * 0.1).to_bits(),
    }
}

fn rec(i: u64) -> PointRecord {
    PointRecord::Solved {
        m: 1,
        pi0: vec![i as f64],
        pi1: vec![1.0 / (i + 1) as f64],
        r: vec![0.5],
        s1: vec![2.0],
        s2: vec![4.0],
        s3: vec![8.0],
    }
}

#[test]
fn injected_short_write_is_recovered_as_a_torn_tail() {
    let scratch = Scratch::new("short");
    {
        let (mut store, _) = Store::open(&scratch.0).unwrap();
        store.append(&key(0), &rec(0)).unwrap();
        store.append(&key(1), &rec(1)).unwrap();
        // Third append: persist only 7 bytes of the frame, then fail.
        let _armed = arm(FaultPlan {
            short_write: Some((3, 7)),
            ..FaultPlan::default()
        });
        match store.append(&key(2), &rec(2)) {
            Err(StoreError::Io(e)) => assert!(e.to_string().contains("short write")),
            other => panic!("expected injected Io error, got {other:?}"),
        }
    }
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert!(stats.recovered_truncation);
    assert_eq!(stats.truncated_bytes, 7);
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(&key(0)), Some(&rec(0)));
    assert_eq!(store.get(&key(1)), Some(&rec(1)));
    assert_eq!(store.get(&key(2)), None);
}

#[test]
fn injected_bit_flip_on_the_tail_is_truncated_on_open() {
    let scratch = Scratch::new("flip");
    {
        let (mut store, _) = Store::open(&scratch.0).unwrap();
        store.append(&key(0), &rec(0)).unwrap();
        // Corrupt one payload bit of the second (final) frame. Bit 100
        // lands in the payload: 8 header bytes = 64 bits, so bit 100 is
        // payload byte 4.
        let _armed = arm(FaultPlan {
            bit_flip: Some((2, 100)),
            ..FaultPlan::default()
        });
        store.append(&key(1), &rec(1)).unwrap();
        store.flush().unwrap();
    }
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert!(stats.recovered_truncation);
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(&key(0)), Some(&rec(0)));
    assert_eq!(store.get(&key(1)), None);
}

#[test]
fn injected_bit_flip_before_valid_frames_is_interior_corruption() {
    let scratch = Scratch::new("interior");
    {
        let (mut store, _) = Store::open(&scratch.0).unwrap();
        let _armed = arm(FaultPlan {
            bit_flip: Some((1, 100)),
            ..FaultPlan::default()
        });
        store.append(&key(0), &rec(0)).unwrap();
        store.append(&key(1), &rec(1)).unwrap();
        store.flush().unwrap();
    }
    assert!(matches!(
        Store::open(&scratch.0),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn injected_fsync_failure_surfaces_from_flush() {
    let scratch = Scratch::new("sync");
    let (mut store, _) = Store::open(&scratch.0).unwrap();
    store.append(&key(0), &rec(0)).unwrap();
    {
        let _armed = arm(FaultPlan {
            fail_sync: true,
            ..FaultPlan::default()
        });
        match store.flush() {
            Err(StoreError::Io(e)) => assert!(e.to_string().contains("fsync")),
            other => panic!("expected injected Io error, got {other:?}"),
        }
    }
    // Disarmed: the same flush now succeeds and the data is durable.
    store.flush().unwrap();
    drop(store);
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert!(!stats.recovered_truncation);
    assert_eq!(store.get(&key(0)), Some(&rec(0)));
}

#[test]
fn injected_fsync_failure_during_drop_does_not_panic() {
    // The Drop flush is best-effort: a failing fsync is logged, never
    // panicked — a panic in drop on an unwind path would abort.
    let scratch = Scratch::new("syncdrop");
    let (mut store, _) = Store::open(&scratch.0).unwrap();
    store.append(&key(0), &rec(0)).unwrap();
    {
        let _armed = arm(FaultPlan {
            fail_sync: true,
            ..FaultPlan::default()
        });
        drop(store);
    }
    // The append itself still reached the file (writes are unbuffered),
    // so a reopen sees the record even though the sync was suppressed.
    let (store, _) = Store::open(&scratch.0).unwrap();
    assert_eq!(store.get(&key(0)), Some(&rec(0)));
}
