//! Recovery-path tests: torn tails truncate losslessly, interior
//! corruption refuses to open, verify/merge behave as documented.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use performa_store::frame::{crc32, FRAME_HEADER_LEN, MAGIC};
use performa_store::{merge, verify, PointKey, PointRecord, Store, StoreError, StoreHandle};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A unique scratch path; best-effort removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "performa_store_{tag}_{}_{}.log",
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
        fingerprint: format!("n=4;test-model-{i}"),
        solver_version: 1,
        x_bits: (0.1 + i as f64 * 0.05).to_bits(),
    }
}

fn solved(i: u64) -> PointRecord {
    PointRecord::Solved {
        m: 2,
        pi0: vec![0.5 + i as f64, 0.25],
        pi1: vec![0.125, 0.0625],
        r: vec![0.1, 0.2, 0.3, 0.4],
        s1: vec![1.5, 2.0],
        s2: vec![2.5, 3.0],
        s3: vec![3.5, 4.0],
    }
}

fn failed() -> PointRecord {
    PointRecord::Failed {
        kind: "numerical_breakdown".to_string(),
        message: "NaN at logred iteration 3".to_string(),
    }
}

fn populate(path: &std::path::Path, n: u64) {
    let (mut store, stats) = Store::open(path).unwrap();
    assert!(!stats.recovered_truncation);
    for i in 0..n {
        store.append(&key(i), &solved(i)).unwrap();
    }
    store.flush().unwrap();
}

#[test]
fn drop_mid_batch_flushes_and_reopens_complete() {
    // Fewer appends than SYNC_EVERY, no explicit flush: the Drop impl
    // must sync the batch so a clean exit (scope end, early return,
    // unwind) never strands records in the page cache.
    let scratch = Scratch::new("dropflush");
    {
        let (mut store, _) = Store::open(&scratch.0).unwrap();
        for i in 0..5 {
            store.append(&key(i), &solved(i)).unwrap();
        }
        const { assert!(5 < performa_store::SYNC_EVERY) };
        // No flush() — the store is dropped mid-batch here.
    }
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert_eq!(stats.records, 5);
    assert!(!stats.recovered_truncation);
    for i in 0..5 {
        assert_eq!(store.get(&key(i)), Some(&solved(i)));
    }
    assert!(verify(&scratch.0).is_ok());
}

#[test]
fn round_trip_across_reopen() {
    let scratch = Scratch::new("roundtrip");
    populate(&scratch.0, 5);
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert_eq!(stats.frames, 5);
    assert_eq!(stats.records, 5);
    assert!(!stats.recovered_truncation);
    for i in 0..5 {
        assert_eq!(store.get(&key(i)), Some(&solved(i)));
    }
    assert_eq!(store.get(&key(99)), None);
}

#[test]
fn torn_tail_truncates_at_every_cut_without_losing_prior_records() {
    let scratch = Scratch::new("torn");
    populate(&scratch.0, 3);
    let full = std::fs::read(&scratch.0).unwrap();
    // Find where the last frame starts by replaying lengths.
    let mut offset = MAGIC.len();
    let mut last_start = offset;
    while offset < full.len() {
        last_start = offset;
        let len =
            u32::from_le_bytes(full[offset..offset + 4].try_into().unwrap()) as usize;
        offset += FRAME_HEADER_LEN + len;
    }
    // Cut the file anywhere inside the last frame: open must recover
    // to exactly the first two records every time.
    for cut in last_start + 1..full.len() {
        std::fs::write(&scratch.0, &full[..cut]).unwrap();
        let (store, stats) = Store::open(&scratch.0).unwrap();
        assert!(stats.recovered_truncation, "cut at {cut}");
        assert_eq!(stats.truncated_bytes, (cut - last_start) as u64);
        assert_eq!(store.len(), 2, "cut at {cut}");
        assert_eq!(store.get(&key(0)), Some(&solved(0)));
        assert_eq!(store.get(&key(1)), Some(&solved(1)));
        drop(store);
        // Recovery is terminal: the reopened file is clean.
        let (_, stats2) = Store::open(&scratch.0).unwrap();
        assert!(!stats2.recovered_truncation, "cut at {cut}");
    }
}

#[test]
fn checksum_corrupt_tail_frame_is_truncated_not_fatal() {
    let scratch = Scratch::new("badtail");
    populate(&scratch.0, 3);
    let mut bytes = std::fs::read(&scratch.0).unwrap();
    // Flip a payload bit of the *last* frame.
    let mut offset = MAGIC.len();
    let mut last_start = offset;
    while offset < bytes.len() {
        last_start = offset;
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += FRAME_HEADER_LEN + len;
    }
    bytes[last_start + FRAME_HEADER_LEN + 2] ^= 0x10;
    let total = bytes.len();
    std::fs::write(&scratch.0, &bytes).unwrap();

    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert!(stats.recovered_truncation);
    assert_eq!(stats.truncated_bytes, (total - last_start) as u64);
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(&key(0)), Some(&solved(0)));
    assert_eq!(store.get(&key(1)), Some(&solved(1)));
}

#[test]
fn interior_corruption_refuses_to_open() {
    let scratch = Scratch::new("interior");
    populate(&scratch.0, 3);
    let mut bytes = std::fs::read(&scratch.0).unwrap();
    // Flip a payload bit of the *first* frame; two valid frames follow.
    bytes[MAGIC.len() + FRAME_HEADER_LEN + 2] ^= 0x10;
    std::fs::write(&scratch.0, &bytes).unwrap();
    match Store::open(&scratch.0) {
        Err(StoreError::Corrupt { offset, .. }) => {
            assert_eq!(offset, MAGIC.len() as u64);
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn corrupt_interior_length_field_cannot_masquerade_as_a_torn_tail() {
    let scratch = Scratch::new("desync");
    populate(&scratch.0, 5);
    let full = std::fs::read(&scratch.0).unwrap();
    // Overwrite the first frame's header. A small bogus length
    // desynchronizes every frame-aligned scan; a huge one makes the
    // rest of the file look like a single torn frame. Both shapes must
    // still be classed as interior corruption, because four intact
    // records follow the damage.
    for bogus_len in [16u32, (64 << 20) as u32, u32::MAX] {
        let mut bytes = full.clone();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&bogus_len.to_le_bytes());
        bytes[MAGIC.len() + 4..MAGIC.len() + 8]
            .copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        std::fs::write(&scratch.0, &bytes).unwrap();
        match Store::open(&scratch.0) {
            Err(StoreError::Corrupt { offset, .. }) => {
                assert_eq!(offset, MAGIC.len() as u64, "len={bogus_len}");
            }
            other => panic!("len={bogus_len}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn foreign_file_refuses_to_open() {
    let scratch = Scratch::new("magic");
    std::fs::write(&scratch.0, b"definitely not a performa store log").unwrap();
    assert!(matches!(
        Store::open(&scratch.0),
        Err(StoreError::Corrupt { offset: 0, .. })
    ));
}

#[test]
fn partial_magic_header_is_recovered() {
    let scratch = Scratch::new("partialmagic");
    std::fs::write(&scratch.0, &MAGIC[..3]).unwrap();
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert!(stats.recovered_truncation);
    assert_eq!(store.len(), 0);
    drop(store);
    let (_, stats2) = Store::open(&scratch.0).unwrap();
    assert!(!stats2.recovered_truncation);
}

#[test]
fn last_record_wins_within_one_log() {
    let scratch = Scratch::new("lastwins");
    let (mut store, _) = Store::open(&scratch.0).unwrap();
    store.append(&key(0), &failed()).unwrap();
    store.append(&key(0), &solved(0)).unwrap();
    store.flush().unwrap();
    assert_eq!(store.len(), 1);
    assert_eq!(store.get(&key(0)), Some(&solved(0)));
    drop(store);
    // Same answer after an index rebuild.
    let (store, stats) = Store::open(&scratch.0).unwrap();
    assert_eq!(stats.frames, 2);
    assert_eq!(stats.records, 1);
    assert_eq!(store.get(&key(0)), Some(&solved(0)));
}

#[test]
fn verify_reports_clean_torn_and_corrupt_logs() {
    let scratch = Scratch::new("verify");
    populate(&scratch.0, 4);
    let clean = verify(&scratch.0).unwrap();
    assert_eq!(clean.frames, 4);
    assert_eq!(clean.records, 4);
    assert_eq!(clean.torn_tail_bytes, 0);

    // Torn tail: reported, not an error, and nothing is repaired.
    let full = std::fs::read(&scratch.0).unwrap();
    std::fs::write(&scratch.0, &full[..full.len() - 5]).unwrap();
    let torn = verify(&scratch.0).unwrap();
    assert_eq!(torn.frames, 3);
    assert!(torn.torn_tail_bytes > 0);
    assert_eq!(std::fs::read(&scratch.0).unwrap().len(), full.len() - 5);

    // Checksum damage anywhere is an error for verify.
    let mut bytes = full.clone();
    bytes[MAGIC.len() + FRAME_HEADER_LEN] ^= 0x01;
    std::fs::write(&scratch.0, &bytes).unwrap();
    assert!(matches!(
        verify(&scratch.0),
        Err(StoreError::Corrupt { .. })
    ));
}

#[test]
fn merge_unions_shards_and_is_idempotent() {
    let a = Scratch::new("merge_a");
    let b = Scratch::new("merge_b");
    let out = Scratch::new("merge_out");
    // Shard A: keys 0,1,2. Shard B: keys 2,3 (2 overlaps).
    {
        let (mut s, _) = Store::open(&a.0).unwrap();
        for i in 0..3 {
            s.append(&key(i), &solved(i)).unwrap();
        }
        s.flush().unwrap();
    }
    {
        let (mut s, _) = Store::open(&b.0).unwrap();
        for i in 2..4 {
            s.append(&key(i), &solved(i)).unwrap();
        }
        s.flush().unwrap();
    }
    let stats = merge(&[a.0.clone(), b.0.clone()], &out.0).unwrap();
    assert_eq!(stats.added, 4);
    assert_eq!(stats.skipped, 1);
    let (merged, _) = Store::open(&out.0).unwrap();
    assert_eq!(merged.len(), 4);
    for i in 0..4 {
        assert_eq!(merged.get(&key(i)), Some(&solved(i)));
    }
    drop(merged);
    // Rerunning the merge adds nothing.
    let again = merge(&[a.0.clone(), b.0.clone()], &out.0).unwrap();
    assert_eq!(again.added, 0);
    assert_eq!(again.skipped, 5);
    // And the merged log verifies.
    let v = verify(&out.0).unwrap();
    assert_eq!(v.records, 4);
    assert_eq!(v.torn_tail_bytes, 0);
}

#[test]
fn merge_accepts_a_torn_shard() {
    let a = Scratch::new("merge_torn_a");
    let out = Scratch::new("merge_torn_out");
    populate(&a.0, 3);
    let full = std::fs::read(&a.0).unwrap();
    std::fs::write(&a.0, &full[..full.len() - 3]).unwrap();
    let stats = merge(std::slice::from_ref(&a.0), &out.0).unwrap();
    assert_eq!(stats.added, 2);
    let (merged, _) = Store::open(&out.0).unwrap();
    assert_eq!(merged.len(), 2);
}

#[test]
fn handle_is_shareable_across_threads() {
    let scratch = Scratch::new("handle");
    let (handle, _) = StoreHandle::open(&scratch.0).unwrap();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let handle = handle.clone();
            scope.spawn(move || {
                for i in 0..8u64 {
                    let k = key(t * 8 + i);
                    handle.append(&k, &solved(t * 8 + i)).unwrap();
                    assert!(handle.get(&k).is_some());
                }
            });
        }
    });
    handle.flush().unwrap();
    assert_eq!(handle.len(), 32);
    let (reopened, stats) = Store::open(&scratch.0).unwrap();
    assert!(!stats.recovered_truncation);
    assert_eq!(reopened.len(), 32);
}

#[test]
fn crc_helper_is_stable() {
    // Pin the on-disk checksum convention: if this changes, existing
    // logs stop opening.
    assert_eq!(crc32(b"performa"), {
        // Independently computed with the bitwise reference algorithm.
        let mut c = 0xFFFF_FFFFu32;
        for &b in b"performa" {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    });
}
