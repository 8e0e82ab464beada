//! The durable store: an append-only framed log plus a rebuildable
//! in-memory index.
//!
//! # Recovery invariants
//!
//! [`Store::open`] scans the whole log and rebuilds the index. The scan
//! distinguishes two kinds of damage:
//!
//! * **Torn tail** — the file ends inside a frame (a crash mid-append),
//!   or the final frames fail their checksum, and in either case *no*
//!   valid frame follows the damage. The damaged suffix is truncated,
//!   every prior record is kept, and the `store.recovered_truncation`
//!   counter fires. This is the expected state after a SIGKILL and is
//!   always recoverable.
//! * **Interior corruption** — a frame fails its checksum (or claims
//!   more bytes than remain) but a valid, decodable frame is found
//!   *after* it by a byte-granular scan. Append-only writes cannot
//!   produce this shape, so it means the medium (or a fault injector)
//!   rewrote history; the store refuses to open with
//!   [`StoreError::Corrupt`] rather than silently dropping records.
//!
//! Within one log, a later record for a key overwrites an earlier one
//! in the index (last-wins), so a successful re-attempt appended after
//! a persisted failure simply shadows it. A stale frame (a solved
//! record in the tag-1 layout of earlier builds, see [`crate::record`])
//! is counted and leaves its key unindexed, so the point re-solves and
//! its fresh record shadows the frame.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::frame::{encode_frame, parse_frame, FrameParse, MAGIC};
use crate::record::{decode_record, encode_record, PointKey, PointRecord};

/// How many appends may accumulate before the log is fsynced. Batching
/// amortises the sync cost across a sweep; a SIGKILL loses at most the
/// unsynced batch to the page cache only if the *kernel* also dies —
/// writes themselves go straight to the file, so a process kill alone
/// loses nothing.
pub const SYNC_EVERY: usize = 32;

/// Errors from the store layer.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure from the filesystem (or the fault injector).
    Io(std::io::Error),
    /// Corruption that recovery must not paper over: a bad frame with
    /// valid frames after it, a foreign magic header, or a
    /// checksum-valid frame whose payload does not decode.
    Corrupt {
        /// The store file.
        path: PathBuf,
        /// Byte offset of the offending frame.
        offset: u64,
        /// What was wrong there.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "store corrupt beyond recovery: {} at byte {offset}: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`Store::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpenStats {
    /// Frames scanned from the log (including shadowed duplicates).
    pub frames: usize,
    /// Distinct keys in the rebuilt index.
    pub records: usize,
    /// Stale frames scanned (never indexed or replayed).
    pub stale: usize,
    /// Whether a damaged tail was truncated during recovery.
    pub recovered_truncation: bool,
    /// Bytes removed by tail truncation.
    pub truncated_bytes: u64,
}

/// What [`verify`] found (read-only; nothing is repaired).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Well-formed frames in the log.
    pub frames: usize,
    /// Distinct keys across those frames.
    pub records: usize,
    /// Stale frames among them (see [`OpenStats::stale`]).
    pub stale: usize,
    /// Trailing bytes that belong to an incomplete final frame (zero
    /// for a cleanly closed log).
    pub torn_tail_bytes: u64,
}

/// What [`merge`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Records appended to the output store.
    pub added: usize,
    /// Input records skipped because the output already had their key.
    pub skipped: usize,
}

/// An open result store: the log file plus its in-memory index.
#[derive(Debug)]
pub struct Store {
    path: PathBuf,
    file: File,
    index: HashMap<PointKey, PointRecord>,
    appends_since_sync: usize,
    append_seq: u64,
}

impl Store {
    /// Opens (creating if absent) the store at `path`, running tail
    /// recovery and rebuilding the index.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
    /// on interior corruption (see the module docs for the policy).
    pub fn open(path: &Path) -> Result<(Self, OpenStats), StoreError> {
        let _span = performa_obs::span_with(
            "store.open",
            vec![("path", path.display().to_string().into())],
        );
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut stats = OpenStats::default();
        let mut index = HashMap::new();
        let valid_len: u64;

        if bytes.is_empty() {
            file.write_all(&MAGIC)?;
            file.sync_data()?;
            valid_len = MAGIC.len() as u64;
        } else if bytes.len() < MAGIC.len() {
            if MAGIC.starts_with(&bytes) {
                // A crash during the initial header write: rewrite it.
                stats.recovered_truncation = true;
                stats.truncated_bytes = bytes.len() as u64;
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(&MAGIC)?;
                file.sync_data()?;
                valid_len = MAGIC.len() as u64;
            } else {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: 0,
                    detail: "not a performa store (bad magic)".to_string(),
                });
            }
        } else if bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: 0,
                detail: "not a performa store (bad magic)".to_string(),
            });
        } else {
            let mut offset = MAGIC.len();
            loop {
                match parse_frame(&bytes, offset) {
                    FrameParse::Ok { payload, next } => {
                        let (key, record) =
                            decode_record(payload).map_err(|e| StoreError::Corrupt {
                                path: path.to_path_buf(),
                                offset: offset as u64,
                                // The checksum passed, so these bytes are
                                // exactly what some writer produced — this
                                // is a format error, not torn-write damage.
                                detail: format!("checksum-valid frame failed to decode: {e}"),
                            })?;
                        match record {
                            Some(record) => {
                                index.insert(key, record);
                            }
                            None => {
                                index.remove(&key);
                                stats.stale += 1;
                            }
                        }
                        stats.frames += 1;
                        offset = next;
                    }
                    FrameParse::Torn => {
                        if offset < bytes.len() {
                            // A frame that claims more bytes than remain
                            // can be a corrupted interior length just as
                            // well as a crash mid-append — only the
                            // absence of intact frames after it makes it
                            // a tail.
                            if let Some(good) = probe_valid_frame_after(&bytes, offset + 1) {
                                return Err(StoreError::Corrupt {
                                    path: path.to_path_buf(),
                                    offset: offset as u64,
                                    detail: format!(
                                        "incomplete frame with a valid frame at byte {good} \
                                         after it (interior corruption, not a torn tail)"
                                    ),
                                });
                            }
                            stats.recovered_truncation = true;
                            stats.truncated_bytes = (bytes.len() - offset) as u64;
                        }
                        break;
                    }
                    FrameParse::BadChecksum { .. } => {
                        if let Some(good) = probe_valid_frame_after(&bytes, offset + 1) {
                            return Err(StoreError::Corrupt {
                                path: path.to_path_buf(),
                                offset: offset as u64,
                                detail: format!(
                                    "checksum failure with a valid frame at byte {good} after it \
                                     (interior corruption, not a torn tail)"
                                ),
                            });
                        }
                        // No valid frame follows: the whole damaged
                        // suffix is a torn tail. Drop it.
                        stats.recovered_truncation = true;
                        stats.truncated_bytes = (bytes.len() - offset) as u64;
                        break;
                    }
                }
            }
            valid_len = bytes.len() as u64 - stats.truncated_bytes;
            if stats.truncated_bytes > 0 {
                file.set_len(valid_len)?;
                file.sync_data()?;
            }
        }

        if stats.recovered_truncation {
            performa_obs::counter_add("store.recovered_truncation", 1);
        }
        file.seek(SeekFrom::Start(valid_len))?;
        stats.records = index.len();
        performa_obs::event(
            performa_obs::TraceLevel::Info,
            "store.opened",
            vec![
                ("frames", stats.frames.into()),
                ("records", stats.records.into()),
                ("stale", stats.stale.into()),
                ("recovered_truncation", stats.recovered_truncation.into()),
            ],
        );

        Ok((
            Store {
                path: path.to_path_buf(),
                file,
                index,
                appends_since_sync: 0,
                append_seq: 0,
            },
            stats,
        ))
    }

    /// The store file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of distinct keys in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks up a key; fires `store.hit` when found.
    pub fn get(&self, key: &PointKey) -> Option<&PointRecord> {
        let hit = self.index.get(key);
        if hit.is_some() {
            performa_obs::counter_add("store.hit", 1);
        }
        hit
    }

    /// Looks up a key without touching the hit counter (for merge and
    /// bookkeeping paths that are not cache consults).
    pub fn peek(&self, key: &PointKey) -> Option<&PointRecord> {
        self.index.get(key)
    }

    /// Iterates over every indexed `(key, record)` pair.
    pub fn records(&self) -> impl Iterator<Item = (&PointKey, &PointRecord)> {
        self.index.iter()
    }

    /// Appends one record to the log and the index, fsyncing every
    /// [`SYNC_EVERY`] appends.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write or sync failure (including injected
    /// short writes and sync failures under the `fault-injection`
    /// feature).
    pub fn append(&mut self, key: &PointKey, record: &PointRecord) -> Result<(), StoreError> {
        let payload = encode_record(key, record);
        let mut frame = encode_frame(&payload);
        self.append_seq += 1;
        crate::fault::flip_bit(self.append_seq, &mut frame);
        if let Some(n) = crate::fault::short_write(self.append_seq, frame.len()) {
            // Simulate a crash mid-write: persist only a prefix of the
            // frame, then report the failure so the caller aborts.
            self.file.write_all(&frame[..n])?;
            let _ = self.file.sync_data();
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("injected short write: {n} of {} bytes", frame.len()),
            )));
        }
        self.file.write_all(&frame)?;
        self.index.insert(key.clone(), record.clone());
        performa_obs::counter_add("store.append", 1);
        self.appends_since_sync += 1;
        if self.appends_since_sync >= SYNC_EVERY {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any batched appends to disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the fsync fails.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.appends_since_sync > 0 {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if crate::fault::sync_fails() {
            return Err(StoreError::Io(std::io::Error::other(
                "injected fsync failure",
            )));
        }
        self.file.sync_data()?;
        self.appends_since_sync = 0;
        Ok(())
    }
}

impl Drop for Store {
    /// Best-effort flush of the unsynced fsync batch. Appends already
    /// reached the file (writes are unbuffered), so this only narrows
    /// the kernel-death window for up to [`SYNC_EVERY`] − 1 batched
    /// records; a failure is logged, never panicked — drop runs on
    /// unwind paths where a second panic would abort the process.
    fn drop(&mut self) {
        if let Err(e) = self.flush() {
            performa_obs::event(
                performa_obs::TraceLevel::Warn,
                "store.drop_flush_failed",
                vec![
                    ("path", self.path.display().to_string().into()),
                    ("error", e.to_string().into()),
                ],
            );
        }
    }
}

/// Scans forward from `start` looking for a checksum-valid, decodable
/// frame; returns its offset if one exists. The scan slides one byte at
/// a time rather than hopping frame-aligned: a corrupted length field
/// desynchronizes the frame stream, so aligned hops would walk straight
/// past intact successors. A CRC plus record decode passing at a random
/// offset is a ~2^-32 accident, so false positives are not a concern.
/// Used to tell interior corruption (refuse to open) from a damaged
/// tail (truncate).
fn probe_valid_frame_after(bytes: &[u8], start: usize) -> Option<usize> {
    for offset in start..bytes.len() {
        if let FrameParse::Ok { payload, .. } = parse_frame(bytes, offset) {
            if decode_record(payload).is_ok() {
                return Some(offset);
            }
        }
    }
    None
}

/// A cloneable, thread-safe handle to an open [`Store`], as carried by
/// `SweepOptions`.
#[derive(Debug, Clone)]
pub struct StoreHandle {
    inner: Arc<Mutex<Store>>,
}

impl StoreHandle {
    /// Opens the store at `path` (see [`Store::open`]) and wraps it.
    ///
    /// # Errors
    ///
    /// Propagates [`Store::open`] errors.
    pub fn open(path: &Path) -> Result<(Self, OpenStats), StoreError> {
        let (store, stats) = Store::open(path)?;
        Ok((
            StoreHandle {
                inner: Arc::new(Mutex::new(store)),
            },
            stats,
        ))
    }

    /// Wraps an already-open store.
    pub fn from_store(store: Store) -> Self {
        StoreHandle {
            inner: Arc::new(Mutex::new(store)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        // A panic while holding the lock (worker unwound mid-append)
        // leaves the store usable: the log is append-only, so the worst
        // case is a torn tail that the next open recovers.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Cloned lookup; fires `store.hit` when found.
    pub fn get(&self, key: &PointKey) -> Option<PointRecord> {
        self.lock().get(key).cloned()
    }

    /// Appends one record (see [`Store::append`]).
    ///
    /// # Errors
    ///
    /// Propagates [`Store::append`] errors.
    pub fn append(&self, key: &PointKey, record: &PointRecord) -> Result<(), StoreError> {
        self.lock().append(key, record)
    }

    /// Flushes batched appends (see [`Store::flush`]).
    ///
    /// # Errors
    ///
    /// Propagates [`Store::flush`] errors.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.lock().flush()
    }

    /// Number of distinct keys currently indexed.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// Read-only integrity check of the log at `path`.
///
/// Unlike [`Store::open`] this repairs nothing: a torn tail is only
/// *reported* (via [`VerifyStats::torn_tail_bytes`]), and any checksum
/// or decode failure — tail or interior — is an error, since a log that
/// has been opened for writing is always cleanly closed.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
/// on a bad magic header or any frame that fails its checksum or does
/// not decode.
pub fn verify(path: &Path) -> Result<VerifyStats, StoreError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            detail: "not a performa store (bad magic)".to_string(),
        });
    }
    let mut stats = VerifyStats::default();
    let mut keys = std::collections::HashSet::new();
    let mut offset = MAGIC.len();
    loop {
        match parse_frame(&bytes, offset) {
            FrameParse::Ok { payload, next } => {
                let (key, record) = decode_record(payload).map_err(|e| StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: offset as u64,
                    detail: format!("frame failed to decode: {e}"),
                })?;
                stats.stale += usize::from(record.is_none());
                keys.insert(key);
                stats.frames += 1;
                offset = next;
            }
            FrameParse::Torn => {
                stats.torn_tail_bytes = (bytes.len() - offset) as u64;
                break;
            }
            FrameParse::BadChecksum { .. } => {
                return Err(StoreError::Corrupt {
                    path: path.to_path_buf(),
                    offset: offset as u64,
                    detail: "frame checksum mismatch".to_string(),
                });
            }
        }
    }
    stats.records = keys.len();
    Ok(stats)
}

/// Merges every record of `inputs` into the store at `output`,
/// skipping keys the output already has (idempotent, so a partially
/// completed merge can simply be rerun).
///
/// Inputs are opened with full recovery — a shard log with a torn tail
/// from a killed worker merges cleanly.
///
/// # Errors
///
/// Propagates [`Store::open`] / [`Store::append`] errors from either
/// side.
pub fn merge(inputs: &[PathBuf], output: &Path) -> Result<MergeStats, StoreError> {
    let (mut out, _) = Store::open(output)?;
    let mut stats = MergeStats::default();
    for input in inputs {
        let (shard, _) = Store::open(input)?;
        // Deterministic order keeps merged logs reproducible.
        let mut records: Vec<(&PointKey, &PointRecord)> = shard.records().collect();
        records.sort_by(|(a, _), (b, _)| {
            (&a.fingerprint, a.solver_version, a.x_bits)
                .cmp(&(&b.fingerprint, b.solver_version, b.x_bits))
        });
        for (key, record) in records {
            if out.peek(key).is_some() {
                stats.skipped += 1;
            } else {
                out.append(key, record)?;
                stats.added += 1;
            }
        }
    }
    out.flush()?;
    Ok(stats)
}
